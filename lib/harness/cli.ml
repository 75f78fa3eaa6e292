(** The command-line spine every binary shares: a thin layer over stdlib
    [Arg] that owns the message text and the exit policy.

    Conventions, identical for every binary:
    - flags are spelled [-flag value] (or [--flag=value]); a token that
      reads as a number is positional even when it starts with ['-'];
    - [-h], [-help] and [--help] print the usage to stdout, exit 0;
    - [-out DIR] names the artifact directory, created if missing
      ({!Ascy_util.Json.to_file});
    - exit status 0 means ok, 1 a finding or a failed gate, 2 a bad
      command line — reported as exactly one stderr line
      [prog: message], never a backtrace. *)

module Registry = Ascylib.Registry

let prog = ref "?"

(** [fail fmt ...] rejects the command line: [prog: message] on stderr,
    exit status 2. *)
let fail fmt = Printf.ksprintf (fun msg -> Printf.eprintf "%s: %s\n" !prog msg; exit 2) fmt

(** A value reader: [conv what s] reads [s] as the value of [what] (a
    flag, or the name of a positional argument) or {!fail}s. *)
type 'a conv = string -> string -> 'a

let int ?(min = min_int) : int conv =
 fun what s ->
  match int_of_string_opt s with
  | Some n when n >= min -> n
  | _ ->
      fail "%s must be an integer%s, got %s" what
        (if min = min_int then "" else Printf.sprintf " >= %d" min)
        s

let pos_float : float conv =
 fun what s ->
  match float_of_string_opt s with
  | Some x when x > 0. -> x
  | _ -> fail "%s must be a number > 0, got %s" what s

let one_of cases : 'a conv =
 fun what s ->
  match List.assoc_opt s cases with
  | Some v -> v
  | None -> fail "%s must be one of %s, got %s" what (String.concat "|" (List.map fst cases)) s

(** A comma-separated list of [conv] values. *)
let list (conv : 'a conv) : 'a list conv =
 fun what s -> List.map (conv what) (String.split_on_char ',' s)

let model : Ascy_mem.Sim.model conv =
 fun _ s -> try Ascy_mem.Models.by_name s with Invalid_argument msg -> fail "%s" msg

let algorithm : Registry.entry conv =
 fun _ s -> try Registry.by_name s with Invalid_argument msg -> fail "%s" msg

(** An exploration-policy name ({!Ascy_sct.Explorer.policy_of_name}). *)
let policy : string conv = one_of (List.map (fun p -> (p, p)) Ascy_sct.Explorer.policy_names)

(** The registry entries [names] select, or all of them for none. *)
let algorithms = function [] -> Registry.all | names -> List.map (algorithm "NAME") names

(** A flag, as [Arg] takes it.  A doc string starts with the value's
    placeholder (["N  ..."]) or, for a flag without a value, a space. *)
type flag = string * Arg.spec * string

let value name (conv : 'a conv) r doc : flag = (name, Arg.String (fun s -> r := conv name s), doc)

let out_dir r : flag =
  ("-out", Arg.Set_string r, "DIR  write artifacts into DIR, created if missing (default .)")

let model_flag r : flag =
  value "-model" model r
    (Printf.sprintf "NAME  coherence model: %s (default %s)"
       (String.concat "|" Ascy_mem.Models.names)
       (Ascy_mem.Sim.model_name_of !r))

(** [parse ~prog ~usage flags] parses [Sys.argv] against [flags] and
    returns the positional arguments in order.  [usage] heads the help
    text. *)
let parse ~prog:name ~usage flags =
  prog := name;
  let flags = Arg.align (flags @ [ ("-h", Arg.Unit (fun () -> raise (Arg.Help "")), "") ]) in
  let known k = List.exists (fun (k', _, _) -> k' = k) flags in
  let args = ref [] in
  let current = ref 0 in
  let rec go () =
    match Arg.parse_argv ~current Sys.argv flags (fun a -> args := a :: !args) usage with
    | () -> List.rev !args
    | exception Arg.Help _ ->
        print_string (Arg.usage_string flags usage);
        exit 0
    | exception Arg.Bad _ -> (
        (* [Arg] stopped at [s]; say why in our own words *)
        let s = Sys.argv.(!current) in
        match String.index_opt s '=' with
        | _ when float_of_string_opt s <> None ->
            args := s :: !args;
            go ()
        | Some i when known (String.sub s 0 i) -> fail "%s takes no value" (String.sub s 0 i)
        | _ when known s -> fail "%s needs a value" s
        | _ -> fail "unknown option %s" s)
  in
  go ()
