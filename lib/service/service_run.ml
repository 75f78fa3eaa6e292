(** Run one service scenario inside the multicore simulator and collect
    the service-level metrics: per-shard throughput and batching
    behavior, sojourn (enqueue -> completion) and service-time latency
    distributions, fail-over counts, and — after runs that allow it —
    structural validation, per-key conservation, and a per-shard
    linearizability spot-check.

    Rolling-restart scenarios reuse the chaos engine's crash-stop fault
    plans as node failures: the scenario is first executed fault-free to
    calibrate its decision count, then re-executed with every shard
    primary crash-stopped at staggered decision indices, standbys taking
    over the shard lease.  Both executions are deterministic, so the
    whole scenario (including the derived fault plan) reproduces
    bit-for-bit from the seed. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module H = Ascy_util.Histogram
module W = Ascy_harness.Workload
module Engine = Ascy_harness.Engine
module History = Ascy_harness.History
module Registry = Ascylib.Registry

type shard_stat = {
  ss_sid : int;
  ss_applied : int;
  ss_search_ok : int;
  ss_search_miss : int;
  ss_insert_ok : int;
  ss_insert_fail : int;
  ss_remove_ok : int;
  ss_remove_fail : int;
  ss_batches : int;
  ss_max_batch : int;
  ss_takeovers : int;
  ss_throughput_mops : float;
  ss_sojourn : H.t;  (** enqueue -> completion, ns *)
  ss_service : H.t;  (** apply time alone, ns *)
  ss_final_size : int;
}

type result = {
  scenario : Scenario.t;
  algorithm : string;
  platform : string;
  nthreads : int;
  seed : int;
  model : string;
  ops_requested : int;
  ops_applied : int;  (** >= requested when a standby re-applied an in-flight request *)
  seconds : float;
  throughput_mops : float;
  shard_stats : shard_stat array;
  sojourn : H.t;  (** all shards merged, ns *)
  service : H.t;
  enq_waits : int;  (** producer full-ring wait iterations (backpressure) *)
  takeovers : int;
  crashed : int list;  (** crash-stopped tids (primaries), injection order *)
  faults : Sim.fault_event list;
  checked : bool;  (** post-run validation + conservation oracles ran *)
  violation : string option;  (** their verdict ([None] = clean or unchecked) *)
  linearizable : bool option;  (** shard-0 history spot-check, when requested *)
  final_size : int;
  stats : Sim.run_stats;
  resil : Resilience.config;  (** the resilience policy the run used *)
  rmetrics : Resilience.metrics;  (** merged resilience counters (zero when disabled) *)
}

(* Staggered crash plan over the first half of the calibrated run: the
   primary of shard [sid] dies at (sid+1)/(2(nshards+1)) of the
   fault-free decision count — a rolling wave of node failures. *)
let restart_plan (sc : Scenario.t) ~decisions =
  List.init sc.Scenario.nshards (fun sid ->
      {
        Sim.fe_at = max 1 (decisions * (sid + 1) / (2 * (sc.Scenario.nshards + 1)));
        fe_tid = Cluster.primary_tid sc sid;
        fe_fault = Sim.F_crash;
      })

(** The queue-layer fault matrix: a named plan generator per gray-failure
    mode, each a function of the calibrated fault-free decision count so
    the events land inside the run and the whole plan lives in the same
    decision coordinate system as crash plans and SCT schedules (one
    replay artifact, composable with {!restart_plan}). *)
module Fault_matrix = struct
  (* [spread n] — n decision indices evenly spread over the middle 60%
     of the calibrated run, cycling over client tids: message faults
     target client send boundaries. *)
  let spread (sc : Scenario.t) ~decisions ~n mk =
    List.init n (fun i ->
        let at = max 1 (decisions * (2 * n + (i * 6)) / (n * 10)) in
        let tid = i mod sc.Scenario.nclients in
        mk ~at ~tid)

  let drop sc ~decisions ~n =
    spread sc ~decisions ~n (fun ~at ~tid ->
        { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_msg Sim.Msg_drop })

  let dup sc ~decisions ~n =
    spread sc ~decisions ~n (fun ~at ~tid ->
        { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_msg Sim.Msg_dup })

  let delay sc ~decisions ~n =
    spread sc ~decisions ~n (fun ~at ~tid ->
        { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_msg (Sim.Msg_delay 2) })

  (* Gray failure: shard 0's primary's socket runs its memory accesses
     [factor] slower for a window in the middle of the run — the
     breaker/deadline machinery, not the fault engine, has to notice. *)
  let slow_shard ?(factor = 8.0) (sc : Scenario.t) ~platform ~decisions =
    let tid = Cluster.primary_tid sc 0 in
    let socket = P.socket_of platform tid in
    [
      {
        Sim.fe_at = max 1 (decisions / 4);
        fe_tid = socket;
        fe_fault = Sim.F_numa_slow { factor; window = max 1 (decisions / 2) };
      };
    ]

  (** [plan name sc ~platform ~decisions] — the named fault plan of the
      resilience matrix, scaled to the calibrated decision count.  On a
      restart scenario the rolling {!restart_plan} crashes are composed
      on top by {!run}, so e.g. ("drop" x rolling-restart) exercises
      message loss during fail-over. *)
  let plan name (sc : Scenario.t) ~platform ~decisions =
    let n = max 4 (Scenario.total_ops sc / 16) in
    match name with
    | "none" -> []
    | "drop" -> drop sc ~decisions ~n
    | "dup" -> dup sc ~decisions ~n
    | "delay" -> delay sc ~decisions ~n
    | "slow-shard" -> slow_shard sc ~platform ~decisions
    | other -> invalid_arg (Printf.sprintf "unknown fault matrix entry %S" other)

  let names = [ "none"; "drop"; "dup"; "delay"; "slow-shard" ]
end

(** [run ?seed ?model ?platform ?check ?spotcheck ?resil ?fault_plan sc]
    executes scenario [sc] and returns every service metric of the run.
    [check] (default: on) runs post-run structural validation and
    conservation — plus the delivery oracles when [resil] is enabled;
    [spotcheck] additionally records shard 0's applied operations as a
    history and checks it for linearizability (keep the per-key
    operation count under {!History.max_ops_per_key}).

    [resil] (default: disabled, the bit-for-bit legacy path) switches
    the cluster to the resilient request layer.  [fault_plan], given the
    calibrated fault-free decision count, returns extra fault events —
    typically a {!Fault_matrix} plan — which are composed with the
    scenario's own rolling-restart crashes; providing one forces the
    calibrate-then-fault double execution even on restart-free
    scenarios. *)
let run ?(seed = 1) ?(model = Sim.default_model) ?(platform = P.xeon20) ?(check = true)
    ?(spotcheck = false) ?(resil = Resilience.disabled) ?fault_plan (sc : Scenario.t) =
  let (module A : Ascy_core.Set_intf.MAKER) = (Registry.by_name sc.Scenario.algo).Registry.maker in
  let module C = Cluster.Make (Sim.Mem) (A) in
  let nthreads = Scenario.nthreads sc in
  let run_once ~faults ~want_result =
    let cfg = { (Engine.default ~platform ~nthreads) with model; faults } in
    Engine.with_session cfg (fun session ->
        let t = C.create ~resil sc in
        C.prefill t ~seed;
        Sim.warm session.Engine.sim;
        let history = if spotcheck && want_result then Some (History.create ()) else None in
        (match history with
        | Some h ->
            Hashtbl.iter
              (fun k () ->
                if Router.route sc.Scenario.routing ~nshards:sc.Scenario.nshards k = 0 then
                  History.add_initial h k)
              t.C.prefilled
        | None -> ());
        let record =
          Option.map
            (fun h ~sid ~op ~key ~ok ~inv ~res ->
              if sid = 0 then History.record h ~tid:0 ~kind:op ~key ~result:ok ~inv ~res)
            history
        in
        let knobs =
          {
            Cluster.now = (fun () -> Sim.now ());
            cycle_ns = 1.0 /. platform.P.ghz;
            record;
            poll_fault = (fun () -> Sim.poll_msg_fault ());
          }
        in
        let makespan = Engine.run session (C.bodies t ~knobs ~seed) in
        let decisions = Sim.decisions session.Engine.sim in
        if not want_result then (None, decisions)
        else begin
          let stats = Sim.stats session.Engine.sim ~makespan in
          let crashed = Sim.crashed_tids session.Engine.sim in
          (* in-flight requests of crashed drainers: what a standby
             captured at takeover, or the corpse's frozen marker *)
          let crashed_inflight =
            List.concat_map
              (fun tid ->
                let sid = tid - sc.Scenario.nclients in
                if sid < 0 || sid >= sc.Scenario.nshards then []
                else
                  let sh = t.C.shards.(sid) in
                  match sh.C.s_crash_inflight with
                  | [] -> ( match sh.C.s_inflight with Some x -> [ x ] | None -> [])
                  | l -> l)
              crashed
          in
          let violation =
            if not check then None
            else
              match C.check t ~crashed_inflight with
              | Some _ as v -> v
              | None -> C.check_delivery t
          in
          let linearizable =
            match history with
            | None -> None
            | Some h -> ( try Some (History.linearizable h) with History.Too_large _ -> None)
          in
          let seconds = stats.Sim.seconds in
          let shard_stats =
            Array.map
              (fun (sh : C.shard) ->
                {
                  ss_sid = sh.C.sid;
                  ss_applied = sh.C.s_applied;
                  ss_search_ok = sh.C.s_search_ok;
                  ss_search_miss = sh.C.s_search_miss;
                  ss_insert_ok = sh.C.s_insert_ok;
                  ss_insert_fail = sh.C.s_insert_fail;
                  ss_remove_ok = sh.C.s_remove_ok;
                  ss_remove_fail = sh.C.s_remove_fail;
                  ss_batches = sh.C.s_batches;
                  ss_max_batch = sh.C.s_max_batch;
                  ss_takeovers = sh.C.s_takeovers;
                  ss_throughput_mops =
                    (if seconds > 0.0 then float_of_int sh.C.s_applied /. seconds /. 1e6
                     else 0.0);
                  ss_sojourn = sh.C.s_sojourn;
                  ss_service = sh.C.s_service;
                  ss_final_size = C.M.size sh.C.set;
                })
              t.C.shards
          in
          let merge field =
            Array.fold_left (fun acc sh -> H.merge acc (field sh)) (H.create ()) t.C.shards
          in
          let applied = C.total_applied t in
          let result =
            {
              scenario = sc;
              algorithm = C.M.name;
              platform = platform.P.name;
              nthreads;
              seed;
              model = Sim.model_name_of model;
              ops_requested = Scenario.total_ops sc;
              ops_applied = applied;
              seconds;
              throughput_mops =
                (if seconds > 0.0 then float_of_int applied /. seconds /. 1e6 else 0.0);
              shard_stats;
              sojourn = merge (fun sh -> sh.C.s_sojourn);
              service = merge (fun sh -> sh.C.s_service);
              enq_waits = Array.fold_left ( + ) 0 t.C.c_waits;
              takeovers = Array.fold_left (fun a sh -> a + sh.C.s_takeovers) 0 t.C.shards;
              crashed;
              faults;
              checked = check;
              violation;
              linearizable;
              final_size = C.total_size t;
              stats;
              resil;
              rmetrics = C.resil_metrics t;
            }
          in
          (Some result, decisions)
        end)
  in
  if (not sc.Scenario.restarts) && Option.is_none fault_plan then
    match run_once ~faults:[] ~want_result:true with
    | Some r, _ -> r
    | None, _ -> assert false
  else begin
    (* calibrate the decision count fault-free, then compose the
       scenario's rolling-restart crashes with the caller's plan *)
    let _, decisions = run_once ~faults:[] ~want_result:false in
    let faults =
      (if sc.Scenario.restarts then restart_plan sc ~decisions else [])
      @ (match fault_plan with Some f -> f ~decisions | None -> [])
    in
    match run_once ~faults ~want_result:true with
    | Some r, _ -> r
    | None, _ -> assert false
  end
