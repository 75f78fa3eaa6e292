(** The unified simulator-session configuration behind every harness
    entry point.

    {!Sim_run} (free-running measurement), {!Sct_run} (systematic
    schedule exploration) and {!Fault_run} (chaos/fault injection) used
    to each assemble their own ad-hoc combination of seed, platform,
    scheduler, fault plan, observers and race detector before calling
    {!Ascy_mem.Sim} — three slightly different copies of the same
    wiring.  [Engine] is that wiring, once: a {!config} record names
    every knob of a simulated execution, {!with_session} turns it into
    an installed simulation with its observer attached, and {!run}
    executes thread bodies under the configured scheduler and
    fault plan.  Algorithm-level event counts ({!Ascy_mem.Event}) come
    from the session's simulator; natively [Memory.S.emit] is a no-op.
    Exploration policy and worker domains are not session knobs: the
    drivers that explore ({!Sct_run.explore}, [bin/ascy_explore]) take
    them directly.

    Instrumentation is one knob, [observer]: a race detector
    ({!Ascy_analysis.Race}), a profiler ({!Ascy_analysis.Profile}), the
    trace rings ({!Ascy_analysis.Trace}) or any composition of them
    ({!Ascy_mem.Sim.compose_observers}).  This module is the one place
    that installs an observer into a simulation.

    The config is also where the pluggable coherence model surfaces in
    the harness: [model] selects {!Ascy_mem.Models.mesi} (default,
    bit-for-bit the historical behavior), [flat] (O(1) costs for
    SCT/analysis volume) or [moesi] (Opteron-style shape reproduction),
    and replay files record it so counterexamples re-arm the model they
    were found under. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform

type config = {
  platform : P.t;
  nthreads : int;
  model : Sim.model;  (** coherence cost model *)
  scheduler : Sim.scheduler option;  (** [None] = free-running (smallest clock) *)
  faults : Sim.fault_event list;  (** injected fault plan; [[]] = none *)
  observer : Sim.observer option;  (** instrumentation; [None] = none *)
}

(** The baseline configuration: free-running, MESI, no faults, no
    instrumentation — what {!Sim_run} historically did. *)
let default ~platform ~nthreads =
  { platform; nthreads; model = Sim.default_model; scheduler = None; faults = []; observer = None }

(** One installed simulation and the config it was built from. *)
type session = { cfg : config; sim : Sim.t }

(** [with_session cfg f] installs a fresh simulation built from [cfg]
    (so [f] can build structures through [Sim.Mem] and prefill outside
    simulated time), attaches [cfg.observer], runs [f session], and
    uninstalls everything. *)
let with_session cfg f =
  Sim.with_sim ~model:cfg.model ~platform:cfg.platform ~nthreads:cfg.nthreads (fun sim ->
      Sim.set_observer sim cfg.observer;
      f { cfg; sim })

(** Execute [bodies] under the session's scheduler and fault plan;
    returns the makespan ({!Ascy_mem.Sim.run}). *)
let run session bodies =
  Sim.run ?scheduler:session.cfg.scheduler ~faults:session.cfg.faults session.sim bodies

(* ------------------------------------------------------------------ *)
(* Model selection in replay metadata                                  *)
(* ------------------------------------------------------------------ *)

let model_key = "model"

(** Metadata fields recording [model] — empty for the default model, so
    files written before models existed (and files found under the
    default) stay byte-identical. *)
let model_meta model =
  if String.equal (Sim.model_name_of model) (Sim.model_name_of Sim.default_model) then []
  else [ (model_key, Ascy_util.Json.String (Sim.model_name_of model)) ]

(** The model a replay file's metadata selects (default when absent).
    Raises {!Ascy_sct.Replay.Bad_schedule} on a name no model has. *)
let model_of_meta meta =
  match List.assoc_opt model_key meta with
  | Some (Ascy_util.Json.String s) -> (
      try Sim.model_of_name s with Invalid_argument msg -> raise (Ascy_sct.Replay.Bad_schedule msg))
  | _ -> Sim.default_model
