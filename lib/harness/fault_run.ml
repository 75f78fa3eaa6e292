(** Chaos testing of CSDS implementations: scripted workloads executed
    under injected fault plans ({!Ascy_mem.Sim.fault_event}) and checked
    with {e progress oracles} — does everyone else still finish when one
    thread crash-stops holding a lock, mid-CAS, or simply stalls?

    This module is chaos {e policy} only: which faults to inject, where,
    and what the outcome says about an algorithm's progress guarantee.
    Every run goes through {!Sct_run.run}, the one executor of a
    scripted spec, with its progress watchdog armed; every
    counterexample is written and replayed by {!Sct_run.save_finding}
    and {!Sct_run.replay_file}.  Where [Sct_run.explore] enumerates
    interleavings of a correct execution, chaos holds the schedule
    (default policy, or any explored prefix) and perturbs the
    {e execution} itself.  Both live in the same coordinate system —
    scheduler decision indices — so a fault plan composes with a
    schedule prefix and serializes into the same replay file
    ({!Ascy_sct.Replay}, schema v2).

    {!classify} turns this into a verdict per algorithm: crash the
    victim after each of its store/CAS commits in turn (covering
    crash-holding-lock for lock-based designs and crash-mid-CAS for
    lock-free ones) and observe whether any placement wedges the
    survivors — the {e observed} progress class, checked against the
    declared Table-1 guarantee ({!Ascylib.Registry.entry.progress}) by
    the [chaos] policy of [bin/ascy_explore] and CI. *)

module Sim = Ascy_mem.Sim
module Scheduler = Ascy_sct.Scheduler
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy

type op = Workload.op = Search | Insert | Remove

let fault_str fe =
  match fe.Sim.fe_fault with
  | Sim.F_crash -> Printf.sprintf "crash(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_stall n -> Printf.sprintf "stall(t%d,%d)@%d" fe.Sim.fe_tid n fe.Sim.fe_at
  | Sim.F_numa_slow { factor; window } ->
      Printf.sprintf "numa-slow(s%d,x%.1f,%d)@%d" fe.Sim.fe_tid factor window fe.Sim.fe_at
  | Sim.F_msg Sim.Msg_drop -> Printf.sprintf "drop(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_msg Sim.Msg_dup -> Printf.sprintf "dup(t%d)@%d" fe.Sim.fe_tid fe.Sim.fe_at
  | Sim.F_msg (Sim.Msg_delay n) ->
      Printf.sprintf "delay(t%d,%d)@%d" fe.Sim.fe_tid n fe.Sim.fe_at

let plan_str faults = String.concat " " (List.map fault_str faults)

(** The chaos watchdog window: decisions without any completed operation
    before a run is declared wedged. *)
let default_watchdog = 2_000

(** A finite stall's length in decisions, and the watchdog its run is
    armed with: long enough that the stall itself never trips it. *)
let stall_window = 500
let stall_watchdog = default_watchdog + (2 * stall_window)

(** [run_spec ?on_step ?watchdog ?check ?model ~faults spec] runs the
    spec once under the controlled default policy with [faults] injected
    and the progress watchdog armed ({!Sct_run.run}). *)
let run_spec ?on_step ?(watchdog = default_watchdog) ?check ?model ~faults spec =
  Sct_run.run ~faults ~watchdog ?check ?model (Sct_run.maker_of spec) spec
    ~sched:(Scheduler.prefix_scheduler ?on_step ~prefix:[||] ())

(* ------------------------------------------------------------------ *)
(* Crash-point discovery                                               *)
(* ------------------------------------------------------------------ *)

(** Decision indices (the first 48) at which crashing [victim] catches
    it right after a store or CAS commit — mid-critical-section for
    lock-based designs (the acquire is an RMW), mid-protocol for
    lock-free ones.  Derived from a fault-free probe run under the same
    (default) schedule, so the indices are exact for subsequent fault
    runs. *)
let crash_candidates ?model ~victim (spec : Sct_run.spec) =
  let max_candidates = 48 in
  let cands = ref [] in
  let on_step ~step ~runnable ~chosen =
    if chosen = victim && List.length !cands < max_candidates then
      match Scheduler.action_of chosen runnable with
      | Sim.A_access ((Sim.Write | Sim.Rmw), _) | Sim.A_kcas _ -> cands := (step + 1) :: !cands
      | _ -> ()
  in
  ignore (run_spec ~on_step ~check:false ?model ~faults:[] spec);
  List.rev !cands

(* ------------------------------------------------------------------ *)
(* Classification: observed vs declared progress                       *)
(* ------------------------------------------------------------------ *)

(** The adversarial chaos workload: three threads hammer updates on one
    key, so a corpse holding that key's lock (or bucket, or segment)
    provably stands in every survivor's way. *)
let chaos_spec ?platform name =
  Sct_run.mk_spec ?platform ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Insert, 1); (Remove, 1); (Insert, 1) |];
        [| (Insert, 1); (Remove, 1); (Insert, 1); (Remove, 1) |];
        [| (Remove, 1); (Insert, 1); (Remove, 1); (Insert, 1) |];
      |]
    ()

type report = {
  entry : Registry.entry;
  observed : Ascy.progress;  (** from the crash sweep *)
  witness : (Sim.fault_event list * string) option;
      (** the plan (and watchdog description) that wedged the survivors —
          present iff [observed = Blocking] *)
  crash_probes : int;  (** crash placements tried *)
  oracle_failures : (Sim.fault_event list * string) list;
      (** completed crash runs that corrupted the structure *)
  stall_ok : bool;  (** finite stall: everyone completed, oracles clean *)
  stall_violation : string option;
  stall_plan : Sim.fault_event list;
}

(** Does the observed behavior honor the declared guarantee?  A declared
    non-blocking design must never wedge and never corrupt; a declared
    blocking one must actually wedge for at least one lock-holder crash
    (otherwise the declaration is wrong too).  Finite stalls must always
    be survived. *)
let matches r =
  r.observed = r.entry.Registry.progress && r.oracle_failures = [] && r.stall_ok

(** Crash the victim after each of its commit points in turn, then stall
    it; observe.  For declared-blocking designs the sweep stops at the
    first wedge (the expected outcome); declared-non-blocking designs
    must survive every placement, so all are run. *)
let classify ?model (entry : Registry.entry) =
  let spec = chaos_spec entry.Registry.name in
  let victim = 0 in
  let declared = entry.Registry.progress in
  (* correctness oracles only where they are sound: a corpse inside a
     blocking design legitimately leaves the structure mid-update (and
     reading it back could spin on the held lock); asynchronized
     structures are incorrect under any concurrency by design *)
  let check_crash = declared = Ascy.Non_blocking && not entry.Registry.asynchronized in
  let cands = crash_candidates ?model ~victim spec in
  let witness = ref None in
  let oracle_failures = ref [] in
  let probes = ref 0 in
  (try
     List.iter
       (fun d ->
         let faults = [ { Sim.fe_at = d; fe_tid = victim; fe_fault = Sim.F_crash } ] in
         incr probes;
         match run_spec ~check:check_crash ?model ~faults spec with
         | { Sct_run.violation = None; _ } -> ()
         | { wedged = true; violation = Some v } ->
             witness := Some (faults, v);
             raise Exit
         | { violation = Some v; _ } -> oracle_failures := (faults, v) :: !oracle_failures)
       cands
   with Exit -> ());
  let observed = if !witness <> None then Ascy.Blocking else Ascy.Non_blocking in
  (* a stall is finite: everyone must finish, and with no corpse at the
     end the exact oracles are sound for every non-asynchronized entry *)
  let stall_at = match cands with d :: _ -> d | [] -> 1 in
  let stall_plan =
    [ { Sim.fe_at = stall_at; fe_tid = victim; fe_fault = Sim.F_stall stall_window } ]
  in
  let stall_out =
    run_spec ~watchdog:stall_watchdog ~check:(not entry.Registry.asynchronized)
      ?model ~faults:stall_plan spec
  in
  {
    entry;
    observed;
    witness = !witness;
    crash_probes = !probes;
    oracle_failures = List.rev !oracle_failures;
    stall_ok = stall_out.Sct_run.violation = None;
    stall_violation = stall_out.Sct_run.violation;
    stall_plan;
  }

(** A concrete failing run, as a chaos counterexample file stores it:
    the fault plan, its violation, and the oracles and watchdog it ran
    under. *)
type finding = { plan : Sim.fault_event list; violation : string; oracles : bool; watchdog : int }

(** The run a mismatched report serializes: the wedge witness (replayed
    without post-run oracles), else the first crash that corrupted the
    structure, else the failed stall.  [None] for a report that matches
    its declaration, and for a mismatch without a concrete run — a
    declared-blocking design that no crash placement wedged. *)
let finding r =
  if matches r then None
  else
    match (r.witness, r.oracle_failures, r.stall_violation) with
    | Some (plan, violation), _, _ ->
        Some { plan; violation; oracles = false; watchdog = default_watchdog }
    | None, (plan, violation) :: _, _ ->
        Some { plan; violation; oracles = true; watchdog = default_watchdog }
    | None, [], Some violation ->
        Some { plan = r.stall_plan; violation; oracles = true; watchdog = stall_watchdog }
    | None, [], None -> None

(** Write [f], found on algorithm [name], to [path] as a replayable
    chaos finding (Replay schema v2). *)
let save_finding ?model ~path name f =
  Sct_run.save_finding ~faults:f.plan ~watchdog:f.watchdog ~check:f.oracles ?model ~path
    ~prefix:[||] ~violation:f.violation (chaos_spec name)
