(* Replay a serialized SCT or chaos counterexample bit-for-bit.

   Usage: sct_replay FILE.json [TIMES]

   Loads a schedule file written by Ascy_harness.Sct_run.save_finding
   (schema v1) or a FAULT_*.json chaos counterexample written by
   Ascy_harness.Fault_run.save_finding (schema v2: schedule prefix plus
   fault plan), rebuilds the exact workload (algorithm, platform, thread
   scripts, prefill), replays it TIMES times (default 2), and checks
   every replay reproduces the identical violation.  Exit status: 0 when
   the violation reproduces deterministically, 1 when it does not (or the
   file is malformed). *)

let verdict expected results =
  let ok =
    match results with
    | [] -> false
    | first :: rest ->
        first <> None
        && List.for_all (fun r -> r = first) rest
        && match expected with Some v -> first = Some v | None -> true
  in
  if ok then begin
    print_endline "verdict: violation reproduces bit-for-bit";
    exit 0
  end
  else begin
    print_endline "verdict: NOT reproducible";
    exit 1
  end

let print_replays expected results =
  (match expected with
  | Some v -> Printf.printf "recorded violation: %s\n" v
  | None -> print_endline "recorded violation: (none stored)");
  List.iteri
    (fun i r ->
      Printf.printf "replay %d: %s\n" (i + 1)
        (match r with Some v -> v | None -> "no violation (!)"))
    results

let replay_fault path times =
  match Ascy_harness.Fault_run.replay_file ~times path with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "error: bad schedule file %s: %s\n" path msg;
      exit 1
  | spec, faults, expected, results ->
      Printf.printf "chaos counterexample: algorithm %s on %s, %d threads\n"
        spec.Ascy_harness.Sct_run.name
        spec.Ascy_harness.Sct_run.platform.Ascy_platform.Platform.name
        spec.Ascy_harness.Sct_run.nthreads;
      Printf.printf "fault plan: %s\n" (Ascy_harness.Fault_run.plan_str faults);
      print_replays expected results;
      verdict expected results

let () =
  let path, times =
    match Sys.argv with
    | [| _; path |] -> (path, 2)
    | [| _; path; n |] -> (path, int_of_string n)
    | _ ->
        prerr_endline "usage: sct_replay FILE.json [TIMES]";
        exit 2
  in
  (* dispatch on schema: a fault plan means a chaos (Fault_run) file *)
  (match
     let _, faults, meta = Ascy_sct.Replay.load path in
     (faults, Ascy_harness.Engine.model_of_meta meta)
   with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "error: bad schedule file %s: %s\n" path msg;
      exit 1
  | faults, model ->
      (* replays re-arm the recorded coherence model; say so when it is
         not the default *)
      let mn = Ascy_mem.Sim.model_name_of model in
      if mn <> Ascy_mem.Sim.model_name_of Ascy_mem.Sim.default_model then
        Printf.printf "coherence model: %s (recorded in replay file)\n" mn;
      if faults <> [] then replay_fault path times);
  match Ascy_harness.Sct_run.replay_file ~times path with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "error: bad schedule file %s: %s\n" path msg;
      exit 1
  | spec, expected, results ->
      Printf.printf "algorithm %s on %s, %d threads, %d scripted ops\n"
        spec.Ascy_harness.Sct_run.name spec.Ascy_harness.Sct_run.platform.Ascy_platform.Platform.name
        spec.Ascy_harness.Sct_run.nthreads
        (Array.fold_left (fun acc ops -> acc + Array.length ops) 0 spec.Ascy_harness.Sct_run.script);
      print_replays expected results;
      verdict expected results
