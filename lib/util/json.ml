(** A minimal, dependency-free JSON representation: enough to emit the
    harness's structured benchmark results ({!Ascy_harness.Results}) and
    to parse them back for golden-file round-trip tests.  Not a
    general-purpose JSON library — no streaming, no unicode escapes
    beyond [\uXXXX] decoding, integers distinguished from floats so
    counter values survive a round trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr x =
  if Float.is_nan x then "null" (* NaN has no JSON representation *)
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

(** [write ?indent b v] appends the serialization of [v] to [b].
    [indent > 0] pretty-prints with that step; the default is compact. *)
let write ?(indent = 0) b v =
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int x -> Buffer.add_string b (string_of_int x)
    | Float x -> Buffer.add_string b (float_repr x)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            pad (depth + 1);
            go (depth + 1) x)
          xs;
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            pad (depth + 1);
            escape_string b k;
            Buffer.add_char b ':';
            if indent > 0 then Buffer.add_char b ' ';
            go (depth + 1) x)
          kvs;
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v

let to_string ?indent v =
  let b = Buffer.create 256 in
  write ?indent b v;
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(** [to_file path v] is the one artifact writer: it creates [path]'s
    missing parent directories, then writes [v] pretty-printed with a
    one-space indent and a trailing newline. *)
let to_file path v =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string ~indent:1 v);
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type parser_state = { s : string; mutable pos : int }

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let skip_ws p =
  while
    p.pos < String.length p.s
    && match p.s.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    p.pos <- p.pos + 1
  done

let expect p c =
  match peek p with
  | Some c' when c' = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected '%c'" c)

let parse_literal p lit v =
  if
    p.pos + String.length lit <= String.length p.s
    && String.sub p.s p.pos (String.length lit) = lit
  then begin
    p.pos <- p.pos + String.length lit;
    v
  end
  else fail p ("expected " ^ lit)

let parse_string_raw p =
  expect p '"';
  let b = Buffer.create 16 in
  let rec go () =
    if p.pos >= String.length p.s then fail p "unterminated string";
    let c = p.s.[p.pos] in
    p.pos <- p.pos + 1;
    if c = '"' then Buffer.contents b
    else if c = '\\' then begin
      (if p.pos >= String.length p.s then fail p "unterminated escape";
       let e = p.s.[p.pos] in
       p.pos <- p.pos + 1;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
           if p.pos + 4 > String.length p.s then fail p "truncated \\u escape";
           let code =
             match int_of_string_opt ("0x" ^ String.sub p.s p.pos 4) with
             | Some c -> c
             | None -> fail p "bad \\u escape"
           in
           p.pos <- p.pos + 4;
           (* only BMP code points below 0x80 emitted by us; store others raw *)
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
       | _ -> fail p "bad escape");
      go ()
    end
    else begin
      Buffer.add_char b c;
      go ()
    end
  in
  go ()

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while p.pos < String.length p.s && is_num_char p.s.[p.pos] do
    p.pos <- p.pos + 1
  done;
  let lit = String.sub p.s start (p.pos - start) in
  match int_of_string_opt lit with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail p ("bad number: " ^ lit))

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> parse_literal p "null" Null
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some '"' -> String (parse_string_raw p)
  | Some '[' ->
      expect p '[';
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let xs = ref [ parse_value p ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          xs := parse_value p :: !xs;
          skip_ws p
        done;
        expect p ']';
        List (List.rev !xs)
      end
  | Some '{' ->
      expect p '{';
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws p;
          let k = parse_string_raw p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          (k, v)
        in
        let kvs = ref [ field () ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          kvs := field () :: !kvs;
          skip_ws p
        done;
        expect p '}';
        Obj (List.rev !kvs)
      end
  | Some _ -> parse_number p

(** [of_string s] parses one JSON value; raises {!Parse_error} on
    malformed input or trailing garbage. *)
let of_string s =
  let p = { s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail p "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors (for tests and downstream tooling)                        *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
