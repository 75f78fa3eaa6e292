(* Fault injection: what a crash-stopped thread does to its survivors.

   The simulator can kill a thread at an exact scheduling decision
   (crash-stop: whatever it held — a lock, a half-linked node — stays
   exactly as it died), stall it for a bounded window, or slow a whole
   socket.  Ascy_harness.Fault_run turns this into chaos testing with
   progress oracles, run by Ascy_harness.Sct_run's one scripted-run
   executor: a global-progress watchdog that reports what every
   survivor was spinning on, and post-fault structural validation +
   per-key conservation (with ±1 slack on the corpse's in-flight key).

   This demo crash-stops thread 0 after each of its store/CAS commit
   points in turn — crash-holding-lock for the lazy list, crash-mid-CAS
   for the Harris list — on the same contended workload:

   - ll-lazy (lock-based) wedges: the corpse dies holding a node lock
     and both survivors spin on it forever;
   - ll-harris (lock-free) shrugs: every placement completes and the
     exact correctness oracles stay clean.

   The wedge is then serialized as a FAULT_*.json counterexample
   (Replay schema v2: schedule prefix + fault plan in the same decision
   coordinates) and replayed bit-for-bit through Sct_run's one replay
   reader, the same loop `ascy_explore -policy chaos` and the CI chaos
   job run over the whole registry.

   Run with: dune exec examples/fault_demo.exe *)

module Fault = Ascy_harness.Fault_run
module Sct = Ascy_harness.Sct_run
module Sim = Ascy_mem.Sim

let file = "FAULT_demo_ll-lazy.json"
let watchdog = 1_000

(* Crash t0 after each of its commit points; return the first wedge. *)
let sweep name ~check =
  let spec = Fault.chaos_spec name in
  let cands = Fault.crash_candidates ~victim:0 spec in
  Printf.printf "%-10s %d crash placements (t0's store/CAS commits)\n%!" name
    (List.length cands);
  let wedge = ref None in
  List.iter
    (fun d ->
      if !wedge = None then begin
        let faults = [ { Sim.fe_at = d; fe_tid = 0; fe_fault = Sim.F_crash } ] in
        match Fault.run_spec ~watchdog ~check ~faults spec with
        | { Sct.violation = None; _ } -> ()
        | { wedged = true; violation = Some v } -> wedge := Some (faults, v)
        | { violation = Some v; _ } ->
            Printf.printf "%-10s oracle failure under %s: %s\n" name (Fault.plan_str faults) v;
            exit 1
      end)
    cands;
  (match !wedge with
  | None ->
      Printf.printf "%-10s every placement survived, oracles clean (non-blocking)\n\n" name
  | Some (faults, v) ->
      Printf.printf "%-10s WEDGED under %s\n           %s\n\n" name (Fault.plan_str faults) v);
  !wedge

let () =
  print_endline "crash-stopping thread 0 after each of its commit points:\n";
  (* the corpse may die holding a lock, so no post-run oracles here —
     even reading the structure back could spin behind it *)
  let wedge = sweep "ll-lazy" ~check:false in
  (* lock-free: sound to demand full correctness after every crash *)
  ignore (sweep "ll-harris" ~check:true);
  match wedge with
  | None ->
      print_endline "ll-lazy never wedged — unexpected for a lock-based list";
      exit 1
  | Some (faults, violation) ->
      Printf.printf "serializing the lock-holder wedge to %s ...\n" file;
      Sct.save_finding ~faults ~watchdog ~check:false ~path:file ~prefix:[||] ~violation
        (Fault.chaos_spec "ll-lazy");
      let _, _, expected, results = Sct.replay_file file in
      let ok = Sct.reproduces ~expected results in
      Printf.printf "replay x2: %s\n" (if ok then "reproduces bit-for-bit" else "DOES NOT REPRODUCE");
      Sys.remove file;
      if not ok then exit 1
