(* The perf ledger: one command for every end-to-end and per-layer number.

   Usage:
     ascy_ledger [-workload NAME] [-seed N] [-seconds S] [-scale smoke|full]
                 [-trace 0|1] [-json FILE] [-trace-out FILE] [-bench-json FILE]

   Every flag is also accepted with two dashes.  Without -workload all
   four workloads run in turn.  For each workload it prints one
   [name value unit] line per metric, then one JSON result line with the
   end-to-end metrics (untraced) or the per-layer metrics (-trace 1).
   Exits 1 when a correctness check fails, 2 on bad arguments. *)

module J = Ascy_util.Json

let usage =
  "usage: ascy_ledger [-workload NAME] [-seed N] [-seconds S] [-scale smoke|full] [-trace 0|1] \
   [-json FILE] [-trace-out FILE] [-bench-json FILE]"

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

(* The checked-out commit, read from .git without running git. *)
let git_rev () =
  let read path = In_channel.with_open_text path In_channel.input_all |> String.trim in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref ] -> (
        try read (Filename.concat ".git" ref)
        with Sys_error _ ->
          let packed = read ".git/packed-refs" in
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ sha; r ] when r = ref -> Some sha
              | _ -> None)
            (String.split_on_char '\n' packed)
          |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

(* BENCHMARK.json must list exactly the metrics this program reports. *)
let check_bench_json path =
  let doc = J.of_string (In_channel.with_open_text path In_channel.input_all) in
  let names key =
    match J.member key doc with
    | Some (J.List ms) ->
        List.sort compare
          (List.map
             (fun m ->
               match (J.member "name" m, J.member "unit" m) with
               | Some (J.String n), Some (J.String u) -> (n, u)
               | _ -> die (Printf.sprintf "%s: malformed %s entry" path key))
             ms)
    | _ -> die (Printf.sprintf "%s: no %s list" path key)
  in
  List.iter
    (fun (key, ours) ->
      if names key <> List.sort compare ours then
        die (Printf.sprintf "%s: %s names/units differ from the ledger's" path key))
    [ ("end_to_end", Ledger.end_to_end); ("per_layer", Ledger.per_layer) ]

let () =
  let workload = ref None and seed = ref 1 and seconds = ref None in
  let scale = ref Workloads.Full and trace = ref false in
  let json = ref None and trace_out = ref None in
  let rec parse = function
    | [] -> ()
    | ("-workload" | "--workload") :: w :: rest ->
        if not (List.mem w Workloads.names) then die ("unknown workload " ^ w);
        workload := Some w;
        parse rest
    | ("-seed" | "--seed") :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> die "bad -seed");
        parse rest
    | ("-seconds" | "--seconds") :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s >= 0.0 -> seconds := Some s
        | _ -> die "bad -seconds");
        parse rest
    | ("-scale" | "--scale") :: s :: rest ->
        scale :=
          (match s with
          | "smoke" -> Workloads.Smoke
          | "full" -> Workloads.Full
          | _ -> die "bad -scale");
        parse rest
    | ("-trace" | "--trace") :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        parse rest
    | ("-json" | "--json") :: f :: rest ->
        json := Some f;
        parse rest
    | ("-trace-out" | "--trace-out") :: f :: rest ->
        trace_out := Some f;
        parse rest
    | ("-bench-json" | "--bench-json") :: f :: rest ->
        check_bench_json f;
        parse rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | arg :: _ -> die ("bad argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seconds =
    match (!seconds, !scale) with
    | Some s, _ -> s
    | None, Workloads.Full -> 28.0
    | None, Workloads.Smoke -> 0.0
  in
  let run name =
    let ledger = Ledger.create () and checks = Meter.fresh_checks () in
    Printf.printf "# %s: seed %d, scale %s, %g s per pass, trace %b\n%!" name !seed
      (Workloads.scale_name !scale) seconds !trace;
    let ctx = { Workloads.seed = !seed; scale = !scale; seconds; trace = !trace; ledger; checks } in
    Workloads.run ctx name;
    if !trace then Probes.run ~scale:!scale ~seed:!seed ~ledger ~checks;
    let wanted = if !trace then Ledger.per_layer else Ledger.end_to_end in
    List.iter
      (fun msg -> Meter.check checks ~units:0 false (lazy msg))
      (Ledger.problems ledger wanted);
    Ledger.print_lines ledger;
    List.iter (fun f -> Printf.printf "# FAILED: %s\n" f) (List.rev checks.Meter.failures);
    if Ledger.problems ledger wanted = [] then
      print_endline (J.to_string (Ledger.result_json ledger ~traced:!trace ~checks));
    (name, ledger, checks)
  in
  let results = List.map run (match !workload with Some w -> [ w ] | None -> Workloads.names) in
  (match !json with
  | None -> ()
  | Some path ->
      let doc =
        J.Obj
          [
            ("schema_version", J.Int 1);
            ("git_rev", J.String (git_rev ()));
            ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", J.String Sys.ocaml_version);
            ("seed", J.Int !seed);
            ("scale", J.String (Workloads.scale_name !scale));
            ("seconds", J.Float seconds);
            ("trace", J.Bool !trace);
            ( "workloads",
              J.List
                (List.map
                   (fun (name, ledger, (c : Meter.checks)) ->
                     J.Obj
                       [
                         ("name", J.String name);
                         ("attempted", J.Int c.Meter.attempted);
                         ("failed", J.Int c.Meter.failed);
                         ("failures", J.List (List.rev_map (fun f -> J.String f) c.Meter.failures));
                         ("metrics", Ledger.metrics_json ledger);
                       ])
                   results) );
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (J.to_string ~indent:1 doc ^ "\n")));
  (match !trace_out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (J.to_string (Trace.spans_json ()) ^ "\n")));
  if List.exists (fun (_, _, (c : Meter.checks)) -> c.Meter.failed > 0) results then exit 1
