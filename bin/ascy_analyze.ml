(* ASCY conformance sweep: observed vs declared ASCY1-4 vectors.

   Usage: ascy_analyze [-out DIR] [-model NAME] [NAME ...]

   For every registry algorithm (or just the NAMEs given), profile every
   operation of two deterministic simulator runs — a contended 4-thread
   run and a single-threaded run against the family's asynchronized
   baseline — and derive the observed ASCY compliance vector from the
   per-phase access profiles (Ascy_harness.Ascy_check).

   Prints the Table-1-style declared-vs-observed table and writes the
   full evidence (per-entry measurements plus one offending op profile
   per violated pattern) to DIR/ASCY_CHECK.json.  Exits 1 on any
   observed/declared mismatch. *)

module Check = Ascy_harness.Ascy_check
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy
module J = Ascy_util.Json
module Cli = Ascy_harness.Cli

let () =
  let out_dir = ref "." in
  let model = ref Ascy_mem.Sim.default_model in
  let entries =
    Cli.algorithms
      (Cli.parse ~prog:"ascy_analyze"
         ~usage:"usage: ascy_analyze [-out DIR] [-model NAME] [NAME ...]"
         [ Cli.out_dir out_dir; Cli.model_flag model ])
  in
  Printf.printf "ASCY conformance sweep: %d algorithms, %s%s\n\n" (List.length entries)
    "per-op phase profiles over contended (4T) + single-thread runs"
    (let mn = Ascy_mem.Sim.model_name_of !model in
     if mn = Ascy_mem.Sim.model_name_of Ascy_mem.Sim.default_model then ""
     else " [model " ^ mn ^ "]");
  Printf.printf "%-14s %-11s %-4s %-8s %-8s %7s %7s %6s %6s  %s\n" "name" "family" "sync"
    "declared" "observed" "ratio" "budget" "s.bad" "p.bad" "verdict";
  let reports = Check.sweep ~entries ~model:!model () in
  let failures = ref [] in
  List.iter
    (fun (r : Check.report) ->
      let e = r.Check.entry in
      let m = r.Check.measured in
      let ok = Check.matches r in
      Printf.printf "%-14s %-11s %-4s %-8s %-8s %7.2f %7.2f %6d %6d  %s\n%!" e.Registry.name
        (Ascy.family_to_string e.Registry.family)
        (Ascy.sync_to_string e.Registry.sync)
        (Ascy.to_string e.Registry.ascy)
        (Ascy.to_string r.Check.observed)
        m.Check.m_ratio m.Check.m_budget m.Check.m_search_bad m.Check.m_parse_bad
        (if ok then "ok" else "MISMATCH");
      if not ok then failures := r :: !failures)
    reports;
  let path = Filename.concat !out_dir "ASCY_CHECK.json" in
  J.to_file path (Check.check_json reports);
  Printf.printf "\n[evidence -> %s]\n" path;
  match !failures with
  | [] ->
      print_endline "every observed ASCY vector matches its declared one";
      exit 0
  | fs ->
      Printf.printf "%d mismatch(es):\n" (List.length fs);
      List.iter
        (fun (r : Check.report) ->
          let m = r.Check.measured in
          Printf.printf
            "  %s: declared %s observed %s (searches %d/%d bad, parses %d/%d bad, failed \
             %d/%d storing, success-waits %d/%d, ratio %.2f vs budget %.2f)\n"
            r.Check.entry.Registry.name
            (Ascy.to_string r.Check.entry.Registry.ascy)
            (Ascy.to_string r.Check.observed)
            m.Check.m_search_bad m.Check.m_searches m.Check.m_parse_bad m.Check.m_updates
            m.Check.m_failed_bad m.Check.m_failed m.Check.m_success_waits m.Check.m_successes
            m.Check.m_ratio m.Check.m_budget)
        fs;
      exit 1
