(* Effect-layer lint: every shared-memory access in the data-structure
   code must go through [Ascy_mem] so that the simulator sees it.

   Rule A — no raw concurrency primitives.  [Atomic.*], [Mutex.*],
   [Condition.*], [Domain.*], [Thread.*] and [Semaphore.*] are forbidden
   everywhere under lib/ except the whitelisted files that exist
   precisely to touch them (native backends, the simulator's
   domain-local slot, the parallel exploration frontier).
   A raw atomic is invisible to the simulated interleaving engine, the
   per-op profiler and the race detector, so it silently corrupts every
   analysis built on the effect layer.

   Rule B — no mutable-record stores in CSDS code.  A [t.field <- v] on
   a shared record bypasses [Mem.set]: under the simulator it commits
   without a scheduling point and without being counted or race-checked.
   Structure code must keep shared state in [Mem.r] cells.  Files whose
   mutable records are genuinely thread-local may opt out with the
   pragma [ascy-lint: allow-mutable-record] in a comment, stating why.
   Array stores [a.(i) <- v] are allowed: the backends wrap arrays of
   [Mem.r] cells, and plain arrays in the tree are per-thread scratch.

   Rule C — no k-CAS descriptor internals outside the backends.  The
   multi-word-CAS protocol (RDCSS sub-descriptors, status words,
   helping) lives entirely behind [Memory.S.kcas]; its identifiers all
   carry the [kdx_]/[Kdx_] prefix and are confined to the two backend
   files that implement the operation.  CSDS code that pattern-matches a
   descriptor or forges one would depend on one backend's encoding and
   silently diverge on the other, so any [kdx_]-prefixed token elsewhere
   under lib/ is a finding.

   Rule D — every simulated execution goes through the engine.  Under
   lib/, the tokens [Sim.run] and [Sim.with_sim] may appear only in
   [lib/harness/engine.ml], so that a knob added to [Engine.config]
   (model, faults, observers, race detection) reaches every harness.
   [lib/analysis/ascy_check.ml] is whitelisted: it lives in
   [ascy_analysis], which [ascy_harness] depends on, so it cannot call
   [Engine] without inverting that layering.

   Rule E — one command-line spine.  Under lib/, bin/ and examples/,
   [Sys.argv] and the output-channel openers ([open_out*],
   [Out_channel.open*]/[with_open*]) may appear only in
   [lib/harness/cli.ml] (argument parsing and the exit policy),
   [lib/util/json.ml] (the one artifact writer) and this file, so every
   binary keeps the same flags, messages and artifact handling.

   The scanner lexes enough OCaml to skip comments (nested, with
   embedded strings), string literals (escapes and {|quoted|} forms)
   and character literals, so prose never triggers a finding.

   Usage: ascy_lint [-root DIR]   (default: current directory)
   Exits 1 if any finding is printed. *)

let rule_a_whitelist =
  [
    "lib/mem/backend/mem_native.ml";
    "lib/harness/native_run.ml";
    "lib/service/service_native.ml";
    (* the simulator's installed-simulation slot is domain-local
       (Domain.DLS) so parallel exploration can drive one simulation per
       domain; the parallel frontier itself spawns and coordinates those
       domains.  Neither is CSDS code — both sit under the effect
       layer, not on top of it. *)
    "lib/mem/core/sim.ml";
    "lib/sct/par_explore.ml";
  ]

let rule_b_dirs =
  [
    "lib/linkedlist";
    "lib/hashtable";
    "lib/skiplist";
    "lib/bst";
    "lib/locks";
    "lib/rcu";
    "lib/ssmem";
  ]

(* the only two files allowed to spell out k-CAS descriptor internals:
   the native RDCSS/k-CAS implementation and the simulator's atomic
   multi-line commit *)
let rule_c_whitelist = [ "lib/mem/backend/mem_native.ml"; "lib/mem/core/sim.ml" ]

(* the engine, plus the one caller below it in the library order *)
let rule_d_whitelist = [ "lib/harness/engine.ml"; "lib/analysis/ascy_check.ml" ]

let rule_e_whitelist = [ "lib/harness/cli.ml"; "lib/util/json.ml"; "bin/ascy_lint.ml" ]

let raw_modules =
  [ "Atomic"; "Mutex"; "Condition"; "Domain"; "Thread"; "Semaphore" ]

let pragma = "ascy-lint: allow-mutable-record"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Blank out comments, strings and char literals (newlines kept, so
   line numbers survive). *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let is_lower c = (c >= 'a' && c <= 'z') || c = '_' in
  (* [!i] is just past an opening quote: blank until past the closing one *)
  let skip_plain_string () =
    let fin = ref false in
    while (not !fin) && !i < n do
      (match src.[!i] with
      | '\\' when !i + 1 < n ->
          blank !i;
          incr i
      | '"' -> fin := true
      | _ -> ());
      blank !i;
      incr i
    done
  in
  (* at [{tag|]: blank through [|tag}]; returns false if not that form *)
  let skip_quoted_string () =
    let j = ref (!i + 1) in
    while !j < n && is_lower src.[!j] do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let tag = String.sub src (!i + 1) (!j - !i - 1) in
      let close = "|" ^ tag ^ "}" in
      let stop = ref (!j + 1) in
      let found = ref false in
      while (not !found) && !stop + String.length close <= n do
        if String.sub src !stop (String.length close) = close then
          found := true
        else incr stop
      done;
      let last = if !found then !stop + String.length close else n in
      for k = !i to last - 1 do
        blank k
      done;
      i := last;
      true
    end
    else false
  in
  let skip_comment () =
    let depth = ref 1 in
    blank !i;
    blank (!i + 1);
    i := !i + 2;
    while !depth > 0 && !i < n do
      if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
        incr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
        decr depth;
        blank !i;
        blank (!i + 1);
        i := !i + 2
      end
      else if src.[!i] = '"' then begin
        (* comments lex embedded string literals *)
        blank !i;
        incr i;
        skip_plain_string ()
      end
      else begin
        blank !i;
        incr i
      end
    done
  in
  (* a char literal, as opposed to a type variable ['a] *)
  let skip_char_literal () =
    if !i + 2 < n && src.[!i + 1] = '\\' then begin
      let close = ref (!i + 2) in
      while !close < n && !close <= !i + 5 && src.[!close] <> '\'' do
        incr close
      done;
      if !close < n && src.[!close] = '\'' then begin
        for k = !i to !close do
          blank k
        done;
        i := !close + 1;
        true
      end
      else false
    end
    else if !i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\' then begin
      blank !i;
      blank (!i + 1);
      blank (!i + 2);
      i := !i + 3;
      true
    end
    else false
  in
  while !i < n do
    match src.[!i] with
    | '(' when !i + 1 < n && src.[!i + 1] = '*' -> skip_comment ()
    | '"' ->
        blank !i;
        incr i;
        skip_plain_string ()
    | '{' when skip_quoted_string () -> ()
    | '\'' when skip_char_literal () -> ()
    | _ -> incr i
  done;
  Bytes.to_string out

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Lines of [text], 1-indexed. *)
let iter_lines text f =
  let line = ref 1 in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        f !line (String.sub text !start (i - !start));
        incr line;
        start := i + 1
      end)
    text;
  if !start < String.length text then
    f !line (String.sub text !start (String.length text - !start))

(* Module qualifier ending at [pos] (exclusive), e.g. the [Stdlib] of
   [Stdlib.Atomic]. *)
let qualifier_before line pos =
  if pos = 0 || line.[pos - 1] <> '.' then None
  else begin
    let e = pos - 1 in
    let s = ref e in
    while !s > 0 && is_ident_char line.[!s - 1] do
      decr s
    done;
    if !s < e then Some (String.sub line !s (e - !s)) else None
  end

let findings = ref []
let report path line msg = findings := (path, line, msg) :: !findings

let check_rule_a path text =
  iter_lines text (fun lineno line ->
      List.iter
        (fun m ->
          let pat = m ^ "." in
          let plen = String.length pat in
          let len = String.length line in
          let pos = ref 0 in
          while !pos + plen <= len do
            if
              String.sub line !pos plen = pat
              && (!pos = 0 || not (is_ident_char line.[!pos - 1]))
              && (!pos + plen >= len || line.[!pos + plen] <> '.')
            then begin
              (* allow [Some_module.Domain.x] (a submodule), but not a
                 [Stdlib.]-qualified escape hatch *)
              let qualified_submodule =
                match qualifier_before line !pos with
                | Some q -> q <> "Stdlib"
                | None -> false
              in
              if not qualified_submodule then
                report path lineno
                  (Printf.sprintf
                     "raw %s.* use — shared-memory effects must go through \
                      Ascy_mem (Mem.get/set/cas), or the file belongs on the \
                      backend whitelist"
                     m)
            end;
            incr pos
          done)
        raw_modules)

let check_rule_b path text =
  iter_lines text (fun lineno line ->
      let len = String.length line in
      let pos = ref 0 in
      while !pos < len do
        if
          line.[!pos] = '.'
          && !pos + 1 < len
          && (let c = line.[!pos + 1] in
              (c >= 'a' && c <= 'z') || c = '_')
        then begin
          let j = ref (!pos + 1) in
          while !j < len && is_ident_char line.[!j] do
            incr j
          done;
          let k = ref !j in
          while !k < len && (line.[!k] = ' ' || line.[!k] = '\t') do
            incr k
          done;
          if !k + 1 < len && line.[!k] = '<' && line.[!k + 1] = '-' then
            report path lineno
              (Printf.sprintf
                 "mutable record store [.%s <-] bypasses Ascy_mem — keep \
                  shared state in Mem.r cells, or mark the file with (* %s — \
                  why it is thread-local *)"
                 (String.sub line (!pos + 1) (!j - !pos - 1))
                 pragma);
          pos := !j
        end
        else incr pos
      done)

(* Report each occurrence of a [toks] token that starts at an identifier
   boundary (and, unless [prefix], also ends at one). *)
let check_tokens ?(prefix = false) path text toks msg =
  iter_lines text (fun lineno line ->
      List.iter
        (fun tok ->
          let tlen = String.length tok in
          let len = String.length line in
          for pos = 0 to len - tlen do
            if
              String.sub line pos tlen = tok
              && (pos = 0 || not (is_ident_char line.[pos - 1]))
              && (prefix || pos + tlen = len || not (is_ident_char line.[pos + tlen]))
            then report path lineno (msg tok)
          done)
        toks)

let check_rule_c path text =
  check_tokens ~prefix:true path text [ "kdx_"; "Kdx_" ] (fun pat ->
      Printf.sprintf
        "k-CAS descriptor internal [%s...] outside the backends — \
         build multi-word updates from Mem.kcas_op/Mem.kcas only; \
         descriptor encodings are private to %s"
        pat
        (String.concat " and " rule_c_whitelist))

let check_rule_d path text =
  check_tokens path text [ "Sim.run"; "Sim.with_sim" ] (fun tok ->
      Printf.sprintf
        "[%s] outside the engine — run simulated executions \
         through Ascy_harness.Engine (with_session/run) so every \
         engine knob applies; only %s may call it"
        tok
        (String.concat " and " rule_d_whitelist))

let check_rule_e path text =
  check_tokens ~prefix:true path text
    [ "Sys.argv"; "open_out"; "Out_channel.open"; "Out_channel.with_open" ]
    (fun tok ->
      Printf.sprintf
        "[%s] outside the CLI spine — parse flags with Ascy_harness.Cli.parse \
         and write artifacts with Ascy_util.Json.to_file; only %s may use it"
        tok
        (String.concat ", " rule_e_whitelist))

let rec walk dir f =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then walk path f
      else if Filename.check_suffix name ".ml" then f path)
    (Sys.readdir dir)

let () =
  let root = ref "." in
  (match Array.to_list Sys.argv with
  | _ :: "-root" :: d :: [] -> root := d
  | [ _ ] -> ()
  | _ ->
      prerr_endline "usage: ascy_lint [-root DIR]";
      exit 2);
  Sys.chdir !root;
  let files_under dir =
    let files = ref [] in
    if Sys.file_exists dir then walk dir (fun p -> files := p :: !files);
    List.sort compare !files
  in
  let lib = files_under "lib" in
  let files = lib @ files_under "bin" @ files_under "examples" in
  List.iter
    (fun path ->
      let src = read_file path in
      let text = strip src in
      if not (List.mem path rule_a_whitelist) then check_rule_a path text;
      let in_rule_b_scope =
        List.exists
          (fun d -> String.length path > String.length d
                    && String.sub path 0 (String.length d) = d
                    && path.[String.length d] = '/')
          rule_b_dirs
      in
      let has_pragma =
        (* the pragma lives in a comment, so look at the raw source *)
        let plen = String.length pragma in
        let n = String.length src in
        let found = ref false in
        for i = 0 to n - plen do
          if String.sub src i plen = pragma then found := true
        done;
        !found
      in
      if in_rule_b_scope && not has_pragma then check_rule_b path text;
      if not (List.mem path rule_c_whitelist) then check_rule_c path text;
      if not (List.mem path rule_d_whitelist) then check_rule_d path text)
    lib;
  List.iter
    (fun path ->
      if not (List.mem path rule_e_whitelist) then check_rule_e path (strip (read_file path)))
    files;
  match List.rev !findings with
  | [] ->
      Printf.printf "ascy_lint: %d files clean\n" (List.length files);
      exit 0
  | fs ->
      List.iter
        (fun (path, line, msg) -> Printf.printf "%s:%d: %s\n" path line msg)
        fs;
      Printf.printf "ascy_lint: %d finding(s)\n" (List.length fs);
      exit 1
