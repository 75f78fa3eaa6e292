(* Chaos sweep: observed vs declared progress guarantees under faults.

   Usage: ascy_chaos [-out DIR] [-watchdog N] [-model NAME] [NAME ...]

   For every registry algorithm (or just the NAMEs given), crash-stop a
   victim thread after each of its store/CAS commit points in turn
   (crash-holding-lock for the lock-based designs, crash-mid-CAS for the
   lock-free ones), then stall it for a finite window, and classify the
   observed behavior with Ascy_harness.Fault_run's progress oracles:

   - declared non-blocking: no crash placement may wedge the survivors,
     no completed run may corrupt the structure (validation + per-key
     conservation with ±1 slack on the corpse's in-flight key);
   - declared blocking: at least one lock-holder crash must actually
     wedge the survivors (otherwise the declaration itself is wrong);
   - everyone: a finite stall must be survived with exact oracles.

   Prints the declared-vs-observed table.  On any mismatch, writes a
   replayable FAULT_<name>.json counterexample (Replay schema v2,
   reproducible with sct_replay) into DIR (default ".") and exits 1.  A
   bad command line (-watchdog below 1, an unknown NAME) is one line on
   stderr and exit status 2. *)

module Fault = Ascy_harness.Fault_run
module Sct = Ascy_harness.Sct_run
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy

(* a bad command line is one line on stderr and exit status 2 *)
let bad_usage msg =
  Printf.eprintf "ascy_chaos: %s\n" msg;
  exit 2

let () =
  let out_dir = ref "." in
  let watchdog = ref Fault.default_watchdog in
  let model = ref Ascy_mem.Sim.default_model in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "-out" :: d :: rest ->
        out_dir := d;
        parse rest
    | "-watchdog" :: n :: rest ->
        (match int_of_string_opt n with
        | Some w when w >= 1 -> watchdog := w
        | _ -> bad_usage ("-watchdog must be an integer >= 1, got " ^ n));
        parse rest
    | "-model" :: m :: rest ->
        model := Ascy_mem.Models.by_name_or_exit ~prog:"ascy_chaos" m;
        parse rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_endline "usage: ascy_chaos [-out DIR] [-watchdog N] [-model NAME] [NAME ...]";
        exit 0
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let entries =
    match !names with
    | [] -> Registry.all
    | names ->
        List.map
          (fun n -> try Registry.by_name n with Invalid_argument msg -> bad_usage msg)
          (List.rev names)
  in
  Printf.printf "chaos sweep: %d algorithms, %s%s\n\n" (List.length entries)
    "crash-after-each-commit + finite-stall fault plans"
    (let mn = Ascy_mem.Sim.model_name_of !model in
     if mn = Ascy_mem.Sim.model_name_of Ascy_mem.Sim.default_model then ""
     else " [model " ^ mn ^ "]");
  Printf.printf "%-14s %-11s %-4s %-12s %-12s %6s %6s  %s\n" "name" "family" "sync" "declared"
    "observed" "probes" "stall" "verdict";
  let failures = ref [] in
  List.iter
    (fun (entry : Registry.entry) ->
      let r = Fault.classify ~watchdog:!watchdog ~model:!model entry in
      let ok = Fault.matches r in
      Printf.printf "%-14s %-11s %-4s %-12s %-12s %6d %6s  %s\n%!" entry.Registry.name
        (Ascy.family_to_string entry.Registry.family)
        (Ascy.sync_to_string entry.Registry.sync)
        (Ascy.progress_to_string entry.Registry.progress)
        (Ascy.progress_to_string r.Fault.observed)
        r.Fault.crash_probes
        (if r.Fault.stall_ok then "ok" else "FAIL")
        (if ok then "ok" else "MISMATCH");
      if not ok then failures := r :: !failures)
    entries;
  match !failures with
  | [] ->
      print_endline "\nevery observed classification matches its declared guarantee";
      exit 0
  | fs ->
      Printf.printf "\n%d mismatch(es):\n" (List.length fs);
      let wrote = ref false in
      List.iter
        (fun (r : Fault.report) ->
          let name = r.Fault.entry.Registry.name in
          (* pick a concrete failing run to serialize, when one exists *)
          let finding =
            match (r.Fault.witness, r.Fault.oracle_failures) with
            | Some (faults, v), _ -> Some (faults, v, false, !watchdog)
            | None, (faults, v) :: _ -> Some (faults, v, true, !watchdog)
            | None, [] ->
                if not r.Fault.stall_ok then
                  match r.Fault.stall_violation with
                  | Some v -> Some (r.Fault.stall_plan, v, true, !watchdog + 1_000)
                  | None -> None
                else None
          in
          match finding with
          | None ->
              Printf.printf
                "  %s: declared %s but no crash placement wedged the survivors (%d probes) — \
                 nothing concrete to serialize\n"
                name
                (Ascy.progress_to_string r.Fault.entry.Registry.progress)
                r.Fault.crash_probes
          | Some (faults, violation, check, wd) ->
              let path = Filename.concat !out_dir ("FAULT_" ^ name ^ ".json") in
              Sct.save_finding ~faults ~watchdog:wd ~check ~model:!model ~path ~prefix:[||]
                ~violation (Fault.chaos_spec name);
              wrote := true;
              Printf.printf "  %s: %s\n    plan: %s\n    counterexample: %s\n" name violation
                (Fault.plan_str faults) path;
              (* paranoia: a counterexample that does not reproduce is noise *)
              let _, _, expected, results = Sct.replay_file ~times:2 path in
              let reproduces =
                match (expected, results) with
                | Some v, [ Some a; Some b ] -> a = v && b = v
                | _ -> false
              in
              Printf.printf "    replay: %s\n"
                (if reproduces then "reproduces bit-for-bit" else "DOES NOT REPRODUCE"))
        fs;
      ignore !wrote;
      exit 1
