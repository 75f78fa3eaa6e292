(** Structured (JSON) benchmark results.

    Every harness run — simulated ({!Sim_run.result}) or native
    ({!Native_run.result}) — serializes to a stable, versioned JSON
    record: throughput, the p1/p25/p50/p75/p99 latency distribution per
    operation class, the full {!Ascy_mem.Sim.run_stats} counter set,
    derived per-op metrics, and workload/platform metadata.  The bench
    drivers append records to a per-experiment sink which is written to
    [BENCH_<experiment>.json] next to the text tables, giving every
    benchmark run a durable, diffable metrics trail.

    Schema (version 1) — one file per experiment:
    {v
    { "schema_version": 1,
      "experiment": "fig2",
      "generated_at_unix": 1754438400.0,
      "meta": { "mode": "default", ... },
      "runs": [ <run>, ... ] }
    v}
    where each simulated <run> is
    {v
    { "label": "...", "kind": "sim", "algorithm": "ll-lazy",
      "platform": "xeon20", "nthreads": 8, "seed": 1,
      "ops_per_thread": 150, "ops": 1200,
      "updates_attempted": N, "updates_successful": N,
      "seconds": s, "throughput_mops": x, "final_size": N,
      "workload": { "initial": N, "key_range": N, "update_pct": N },
      "stats": { "makespan_cycles": N, "accesses": N, "hits_l1": N,
                 "hits_llc": N, "transfers_local": N,
                 "transfers_remote": N, "fetch_remote": N,
                 "misses_mem": N, "atomics": N, "stores": N, "energy_j": x,
                 "power_w": x, "events": { "restart": N, ... } },
      "thread_stats": [ { "tid": N, "accesses": N, "l1": N, "llc": N,
                          "c2c_local": N, "c2c_remote": N,
                          "llc_remote": N, "mem": N, "atomics": N,
                          "stores": N }, ... ],
      "derived": { "misses_per_op": x, "atomics_per_update": x,
                   "stores_per_update": x, "extra_parse_pct": x },
      "latency_ns": { "search_hit": <dist> | null, ...,
                      "ops_ok": <dist> | null } }
    v}
    and <dist> is
    [{ "count": N, "mean": x, "p1": x, "p25": x, "p50": x, "p75": x,
       "p99": x }] (null when no samples were recorded). *)

module J = Ascy_util.Json
module H = Ascy_util.Histogram
module Sim = Ascy_mem.Sim

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Serializers                                                         *)
(* ------------------------------------------------------------------ *)

let histogram_json h =
  if H.count h = 0 then J.Null
  else
    let p = H.summary h in
    J.Obj
      [
        ("count", J.Int (H.count h));
        ("mean", J.Float (H.mean h));
        ("p1", J.Float p.(0));
        ("p25", J.Float p.(1));
        ("p50", J.Float p.(2));
        ("p75", J.Float p.(3));
        ("p99", J.Float p.(4));
      ]

(** count/mean plus an arbitrary percentile set — the service layer's
    p50/p99/p999 sojourn and service-time rows ([Ascy_service]).  The
    fixed five-percentile figure layout above keeps using
    {!histogram_json}. *)
let percentile_summary_json ?(ps = [ (50.0, "p50"); (99.0, "p99"); (99.9, "p999") ]) h =
  if H.count h = 0 then J.Null
  else
    J.Obj
      (("count", J.Int (H.count h))
      :: ("mean", J.Float (H.mean h))
      :: List.map (fun (p, name) -> (name, J.Float (H.percentile h p))) ps)

let events_json events =
  J.Obj (List.init Ascy_mem.Event.count (fun i -> (Ascy_mem.Event.name i, J.Int events.(i))))

let stats_json (st : Sim.run_stats) =
  J.Obj
    [
      ("makespan_cycles", J.Int st.Sim.makespan_cycles);
      ("accesses", J.Int st.Sim.accesses);
      ("hits_l1", J.Int st.Sim.hits_l1);
      ("hits_llc", J.Int st.Sim.hits_llc);
      ("transfers_local", J.Int st.Sim.transfers_local);
      ("transfers_remote", J.Int st.Sim.transfers_remote);
      ("fetch_remote", J.Int st.Sim.fetch_remote);
      ("misses_mem", J.Int st.Sim.misses_mem);
      ("misses", J.Int (Sim.misses st));
      ("atomics", J.Int st.Sim.atomics);
      ("stores", J.Int st.Sim.stores);
      ("energy_j", J.Float st.Sim.energy_j);
      ("power_w", J.Float st.Sim.power_w);
      ("events", events_json st.Sim.events);
    ]

(* Per-thread coherence service-class counters (the Tc_* classes), live
   even with tracing off — paper Fig. 4/10-style breakdowns. *)
let thread_stats_json (ts : Sim.thread_stats array) =
  J.List
    (Array.to_list
       (Array.map
          (fun (t : Sim.thread_stats) ->
            J.Obj
              [
                ("tid", J.Int t.Sim.t_tid);
                ("accesses", J.Int t.Sim.t_accesses);
                ("l1", J.Int t.Sim.t_l1);
                ("llc", J.Int t.Sim.t_llc);
                ("c2c_local", J.Int t.Sim.t_c2c_local);
                ("c2c_remote", J.Int t.Sim.t_c2c_remote);
                ("llc_remote", J.Int t.Sim.t_llc_remote);
                ("mem", J.Int t.Sim.t_mem);
                ("atomics", J.Int t.Sim.t_atomics);
                ("stores", J.Int t.Sim.t_stores);
              ])
          ts))

let workload_json (w : Workload.t) =
  J.Obj
    [
      ("initial", J.Int w.Workload.initial);
      ("key_range", J.Int w.Workload.key_range);
      ("update_pct", J.Int w.Workload.update_pct);
    ]

let latencies_json (lat : Sim_run.latency_class) =
  let ops_ok = H.create () in
  let ops_ok = H.merge ops_ok lat.Sim_run.search_hit in
  let ops_ok = H.merge ops_ok lat.Sim_run.insert_ok in
  let ops_ok = H.merge ops_ok lat.Sim_run.remove_ok in
  J.Obj
    [
      ("search_hit", histogram_json lat.Sim_run.search_hit);
      ("search_miss", histogram_json lat.Sim_run.search_miss);
      ("insert_ok", histogram_json lat.Sim_run.insert_ok);
      ("insert_fail", histogram_json lat.Sim_run.insert_fail);
      ("remove_ok", histogram_json lat.Sim_run.remove_ok);
      ("remove_fail", histogram_json lat.Sim_run.remove_fail);
      ("ops_ok", histogram_json ops_ok);
    ]

(** Serialize one simulated experiment point.  [label] distinguishes
    several points of one figure (panel, contention level, ...). *)
let of_sim_run ?(label = "") (r : Sim_run.result) =
  J.Obj
    [
      ("label", J.String label);
      ("kind", J.String "sim");
      ("algorithm", J.String r.Sim_run.algorithm);
      ("platform", J.String r.Sim_run.platform);
      ("nthreads", J.Int r.Sim_run.nthreads);
      ("seed", J.Int r.Sim_run.seed);
      ("ops_per_thread", J.Int r.Sim_run.ops_per_thread);
      ("ops", J.Int r.Sim_run.ops);
      ("updates_attempted", J.Int r.Sim_run.updates_attempted);
      ("updates_successful", J.Int r.Sim_run.updates_successful);
      ("seconds", J.Float r.Sim_run.seconds);
      ("throughput_mops", J.Float r.Sim_run.throughput_mops);
      ("final_size", J.Int r.Sim_run.final_size);
      ("workload", workload_json r.Sim_run.workload);
      ("stats", stats_json r.Sim_run.stats);
      ("thread_stats", thread_stats_json r.Sim_run.thread_stats);
      ( "derived",
        J.Obj
          [
            ("misses_per_op", J.Float (Sim_run.misses_per_op r));
            ("atomics_per_update", J.Float (Sim_run.atomics_per_update r));
            ("stores_per_update", J.Float (Sim_run.stores_per_update r));
            ("extra_parse_pct", J.Float (Sim_run.extra_parse_pct r));
          ] );
      ("latency_ns", latencies_json r.Sim_run.latencies);
    ]

(** Serialize one native (OCaml-domains) experiment point. *)
let of_native_run ?(label = "") (r : Native_run.result) =
  J.Obj
    [
      ("label", J.String label);
      ("kind", J.String "native");
      ("algorithm", J.String r.Native_run.algorithm);
      ("nthreads", J.Int r.Native_run.nthreads);
      ("ops", J.Int r.Native_run.ops);
      ("seconds", J.Float r.Native_run.seconds);
      ("throughput_mops", J.Float r.Native_run.throughput_mops);
      ("final_size", J.Int r.Native_run.final_size);
    ]

(* ------------------------------------------------------------------ *)
(* Per-experiment sinks                                                *)
(* ------------------------------------------------------------------ *)

(* The bench process runs experiments sequentially, so one current sink
   suffices; [record] outside any sink is a silent no-op so experiment
   drivers also work standalone. *)
let sink : (string * J.t list ref) option ref = ref None

(* A missing ASCY_BENCH_OUT directory does not lose the run's results:
   {!Ascy_util.Json.to_file} creates it at sink-close time. *)
let out_dir () = match Sys.getenv_opt "ASCY_BENCH_OUT" with Some d -> d | None -> "."

let open_sink experiment = sink := Some (experiment, ref [])

(** Append one run record to the open sink (no-op without one). *)
let record j = match !sink with Some (_, runs) -> runs := j :: !runs | None -> ()

(** Convenience: serialize and record a simulated run. *)
let record_sim ?label r = record (of_sim_run ?label r)

(** Close the sink; if any runs were recorded, write
    [BENCH_<experiment>.json] and return its path. *)
let close_sink ?(meta = []) () =
  match !sink with
  | None -> None
  | Some (experiment, runs) ->
      sink := None;
      if !runs = [] then None
      else begin
        let doc =
          J.Obj
            [
              ("schema_version", J.Int schema_version);
              ("experiment", J.String experiment);
              ("generated_at_unix", J.Float (Unix.gettimeofday ()));
              ("meta", J.Obj meta);
              ("runs", J.List (List.rev !runs));
            ]
        in
        let path = Filename.concat (out_dir ()) ("BENCH_" ^ experiment ^ ".json") in
        J.to_file path doc;
        Some path
      end

(** [with_sink ?meta experiment f] runs [f ()] with an open sink and
    writes the collected records afterwards (even if [f] raises). *)
let with_sink ?meta experiment f =
  open_sink experiment;
  Fun.protect
    ~finally:(fun () ->
      match close_sink ?meta () with
      | Some path -> Printf.printf "[%s: structured results -> %s]\n%!" experiment path
      | None -> ())
    f
