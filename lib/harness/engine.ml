(** The unified simulator-session configuration behind every harness
    entry point.

    {!Sim_run} (free-running measurement), {!Sct_run} (systematic
    schedule exploration) and {!Fault_run} (chaos/fault injection) used
    to each assemble their own ad-hoc combination of seed, platform,
    scheduler, fault plan, observers and race detector before calling
    {!Ascy_mem.Sim} — three slightly different copies of the same
    wiring.  [Engine] is that wiring, once: a {!config} record names
    every knob of a simulated execution, {!with_session} turns it into
    an installed simulation with the requested instrumentation attached,
    and {!run} executes thread bodies under the configured scheduler and
    fault plan.  Algorithm-level event counts ({!Ascy_mem.Event}) come
    from the session's simulator; natively [Memory.S.emit] is a no-op.
    Exploration policy and worker domains are not session knobs: the
    drivers that explore ({!Sct_run.explore}, [bin/ascy_explore]) take
    them directly.

    The config is also where the pluggable coherence model surfaces in
    the harness: [model] selects {!Ascy_mem.Models.mesi} (default,
    bit-for-bit the historical behavior), [flat] (O(1) costs for
    SCT/analysis volume) or [moesi] (Opteron-style shape reproduction),
    and replay files record it so counterexamples re-arm the model they
    were found under. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module Race = Ascy_analysis.Race

type config = {
  platform : P.t;
  nthreads : int;
  trace_capacity : int;  (** per-thread trace-ring entries; 0 = rings off *)
  model : Sim.model;  (** coherence cost model *)
  scheduler : Sim.scheduler option;  (** [None] = free-running (smallest clock) *)
  faults : Sim.fault_event list;  (** injected fault plan; [[]] = none *)
  races : bool;  (** attach a happens-before race detector *)
  observer : Sim.observer option;  (** extra analysis observer *)
}

(** The baseline configuration: free-running, MESI, no faults, no
    instrumentation — what {!Sim_run} historically did. *)
let default ~platform ~nthreads =
  {
    platform;
    nthreads;
    trace_capacity = 0;
    model = Sim.default_model;
    scheduler = None;
    faults = [];
    races = false;
    observer = None;
  }

(** One installed simulation plus the instrumentation the config asked
    for.  [race] is the live detector when [cfg.races]; query it after
    {!run} (e.g. via {!race_violation}). *)
type session = {
  cfg : config;
  sim : Sim.t;
  race : Race.t option;
}

(** [with_session cfg f] installs a fresh simulation built from [cfg]
    (so [f] can build structures through [Sim.Mem] and prefill outside
    simulated time), attaches the race detector and/or extra observer,
    runs [f session], and uninstalls everything. *)
let with_session cfg f =
  Sim.with_sim ~trace_capacity:cfg.trace_capacity ~model:cfg.model ~platform:cfg.platform
    ~nthreads:cfg.nthreads (fun sim ->
      let race = if cfg.races then Some (Race.create ~nthreads:cfg.nthreads) else None in
      let observer =
        match (race, cfg.observer) with
        | Some d, Some o -> Some (Sim.compose_observers (Race.observer d) o)
        | Some d, None -> Some (Race.observer d)
        | None, o -> o
      in
      Sim.set_observer sim observer;
      f { cfg; sim; race })

(** Execute [bodies] under the session's scheduler and fault plan;
    returns the makespan ({!Ascy_mem.Sim.run}). *)
let run session bodies =
  Sim.run ?scheduler:session.cfg.scheduler ~faults:session.cfg.faults session.sim bodies

(** The canonical race-oracle description for this session's run, if the
    detector saw any race.  The exact string is part of the replay-file
    contract (counterexample descriptions must reproduce bit-for-bit),
    so every oracle goes through here. *)
let race_violation session =
  match session.race with
  | Some d when Race.total d > 0 ->
      let first = List.hd (Race.races d) in
      Some
        (Printf.sprintf "%d distinct data race(s); first: %s" (Race.total d)
           (Race.describe first))
  | _ -> None

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
