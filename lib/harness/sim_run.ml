(** Run one CSDS workload inside the multicore simulator and collect the
    paper's four scalability dimensions: throughput, average latency,
    latency distribution, and power (plus the memory-event counters used
    by Figures 3 and 7). *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module H = Ascy_util.Histogram

type latency_class = {
  search_hit : H.t;
  search_miss : H.t;
  insert_ok : H.t;
  insert_fail : H.t;
  remove_ok : H.t;
  remove_fail : H.t;
}

let fresh_latencies () =
  {
    search_hit = H.create ();
    search_miss = H.create ();
    insert_ok = H.create ();
    insert_fail = H.create ();
    remove_ok = H.create ();
    remove_fail = H.create ();
  }

type result = {
  algorithm : string;
  platform : string;
  nthreads : int;
  seed : int;
  ops_per_thread : int;
  workload : Workload.t;
  ops : int;
  updates_attempted : int;
  updates_successful : int;
  seconds : float;
  throughput_mops : float;
  stats : Sim.run_stats;
  thread_stats : Sim.thread_stats array;
  latencies : latency_class;
  final_size : int;
}

(* Operation codes used with Sim.op_start/op_end. *)
let op_code = function Workload.Search -> 0 | Workload.Insert -> 1 | Workload.Remove -> 2

(** [run ?seed ?latency ?history ?model (module A)
    ~platform ~nthreads ~workload ~ops_per_thread] executes the workload
    deterministically on the simulated machine and returns every metric
    of one experiment point.  [latency = true] records a per-operation
    latency sample (ns).  [history] records every operation's
    invocation/response cycle stamps and result for linearizability
    checking ({!History.check}); prefilled keys are registered as the
    history's initial state.  [model] selects the coherence cost model
    (default MESI; measurements under [flat] are meaningless by
    construction — see {!Ascy_mem.Coh_flat}). *)
let run ?(seed = 1) ?(latency = false) ?history ?(model = Sim.default_model)
    (module A : Ascy_core.Set_intf.MAKER) ~platform ~nthreads ~(workload : Workload.t)
    ~ops_per_thread () =
  let module M = A (Sim.Mem) in
  let cfg = { (Engine.default ~platform ~nthreads) with model } in
  Engine.with_session cfg (fun session ->
      let sim = session.Engine.sim in
      (* build + prefill happen outside simulated time *)
      let t = M.create ~hint:workload.Workload.initial () in
      let rng0 = Ascy_util.Xorshift.create (seed * 31 + 7) in
      let filled = ref 0 in
      while !filled < workload.Workload.initial do
        let k = Workload.pick_key workload rng0 in
        if M.insert t k 0 then begin
          incr filled;
          match history with Some h -> History.add_initial h k | None -> ()
        end
      done;
      Sim.warm sim;
      let lat = fresh_latencies () in
      let upd_att = Array.make nthreads 0 in
      let upd_ok = Array.make nthreads 0 in
      let ghz = platform.P.ghz in
      let timed = latency || history <> None in
      let body tid () =
        let rng = Ascy_util.Xorshift.create ((seed * 7919) + (tid * 104729) + 13) in
        for _ = 1 to ops_per_thread do
          let k = Workload.pick_key workload rng in
          let op = Workload.pick_op workload rng in
          Sim.op_start (op_code op);
          let t0 = if timed then Sim.now () else 0 in
          let ok =
            match op with
            | Workload.Search -> M.search t k <> None
            | Workload.Insert ->
                upd_att.(tid) <- upd_att.(tid) + 1;
                let r = M.insert t k tid in
                if r then upd_ok.(tid) <- upd_ok.(tid) + 1;
                r
            | Workload.Remove ->
                upd_att.(tid) <- upd_att.(tid) + 1;
                let r = M.remove t k in
                if r then upd_ok.(tid) <- upd_ok.(tid) + 1;
                r
          in
          if timed then begin
            let t1 = Sim.now () in
            if latency then begin
              let h =
                match (op, ok) with
                | Workload.Search, true -> lat.search_hit
                | Workload.Search, false -> lat.search_miss
                | Workload.Insert, true -> lat.insert_ok
                | Workload.Insert, false -> lat.insert_fail
                | Workload.Remove, true -> lat.remove_ok
                | Workload.Remove, false -> lat.remove_fail
              in
              H.add h (float_of_int (t1 - t0) /. ghz)
            end;
            match history with
            | Some h -> History.record h ~tid ~kind:op ~key:k ~result:ok ~inv:t0 ~res:t1
            | None -> ()
          end;
          Sim.op_end (op_code op);
          M.op_done t
        done
      in
      let makespan = Engine.run session (Array.init nthreads body) in
      let stats = Sim.stats sim ~makespan in
      let thread_stats = Sim.per_thread_stats sim in
      let ops = nthreads * ops_per_thread in
      {
        algorithm = M.name;
        platform = platform.P.name;
        nthreads;
        seed;
        ops_per_thread;
        workload;
        ops;
        updates_attempted = Array.fold_left ( + ) 0 upd_att;
        updates_successful = Array.fold_left ( + ) 0 upd_ok;
        seconds = stats.Sim.seconds;
        throughput_mops =
          (if stats.Sim.seconds > 0.0 then float_of_int ops /. stats.Sim.seconds /. 1e6 else 0.0);
        stats;
        thread_stats;
        latencies = lat;
        final_size = M.size t;
      })

(** Misses per operation — Figure 3's metric. *)
let misses_per_op r = float_of_int (Sim.misses r.stats) /. float_of_int (max r.ops 1)

(** Atomic (RMW) operations per successful update — Figure 7's metric. *)
let atomics_per_update r =
  float_of_int r.stats.Sim.atomics /. float_of_int (max r.updates_successful 1)

(** Stores (plain + RMW) per successful update — the paper's
    stores-per-operation metric, from the always-on counters. *)
let stores_per_update r =
  float_of_int (r.stats.Sim.stores + r.stats.Sim.atomics)
  /. float_of_int (max r.updates_successful 1)

(** Extra parses beyond one per update, as a percentage — §5's
    fraser vs fraser-opt numbers. *)
let extra_parse_pct r =
  let parses = r.stats.Sim.events.(Ascy_mem.Event.parse) in
  if parses = 0 then 0.0
  else
    100.0
    *. float_of_int (parses - r.updates_attempted)
    /. float_of_int (max r.updates_attempted 1)
