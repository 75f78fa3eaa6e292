(* Replay a serialized SCT or chaos counterexample bit-for-bit.

   Usage: sct_replay FILE.json [TIMES]

   Loads a schedule file written by Ascy_harness.Sct_run.save_finding —
   an SCT finding (schema v1) or a FAULT_*.json chaos finding (schema
   v2: schedule prefix plus fault plan) — through the one reader,
   Ascy_harness.Sct_run.replay_file, which rebuilds the exact workload
   (algorithm, platform, thread scripts, prefill, fault plan, watchdog,
   coherence model) and replays it TIMES times (default 2).  Exit
   status: 0 when every replay reproduces the recorded violation
   identically, 1 when it does not or the file is malformed. *)

module Sct = Ascy_harness.Sct_run
module Cli = Ascy_harness.Cli

let () =
  let usage = "usage: sct_replay FILE.json [TIMES]" in
  let path, times =
    match Cli.parse ~prog:"sct_replay" ~usage [] with
    | [ path ] -> (path, 2)
    | [ path; n ] -> (path, Cli.int ~min:1 "TIMES" n)
    | _ -> Cli.fail "%s" usage
  in
  match
    let _, _, meta = Ascy_sct.Replay.load path in
    (Ascy_harness.Engine.model_of_meta meta, Sct.replay_file ~times path)
  with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "error: bad schedule file %s: %s\n" path msg;
      exit 1
  | model, (spec, faults, expected, results) ->
      (* replays re-arm the recorded coherence model; say so when it is
         not the default *)
      let mn = Ascy_mem.Sim.model_name_of model in
      if mn <> Ascy_mem.Sim.model_name_of Ascy_mem.Sim.default_model then
        Printf.printf "coherence model: %s (recorded in replay file)\n" mn;
      Printf.printf "algorithm %s on %s, %d threads, %d scripted ops\n" spec.Sct.name
        spec.Sct.platform.Ascy_platform.Platform.name spec.Sct.nthreads
        (Array.fold_left (fun acc ops -> acc + Array.length ops) 0 spec.Sct.script);
      if faults <> [] then
        Printf.printf "fault plan: %s\n" (Ascy_harness.Fault_run.plan_str faults);
      (match expected with
      | Some v -> Printf.printf "recorded violation: %s\n" v
      | None -> print_endline "recorded violation: (none stored)");
      List.iteri
        (fun i r ->
          Printf.printf "replay %d: %s\n" (i + 1)
            (match r with Some v -> v | None -> "no violation (!)"))
        results;
      let first = List.hd results in
      if
        first <> None
        && List.for_all (( = ) first) results
        && match expected with Some v -> first = Some v | None -> true
      then print_endline "verdict: violation reproduces bit-for-bit"
      else begin
        print_endline "verdict: NOT reproducible";
        exit 1
      end
