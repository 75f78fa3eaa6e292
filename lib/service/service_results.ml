(** BENCH_service.json — structured results for the sharded KV service,
    written through the existing {!Ascy_harness.Results} sink (schema
    version 1, golden-pinned by [test/test_service.ml]).

    One simulated <run> record:
    {v
    { "label": "...", "kind": "service", "scenario": { ... },
      "algorithm": "ht-clht-lb", "platform": "Xeon20", "nthreads": N,
      "seed": N, "model": "mesi",
      "ops_requested": N, "ops_applied": N,
      "seconds": s, "throughput_mops": x,
      "latency_ns": { "sojourn": <pdist> | null, "service": <pdist> | null },
      "shards": [ { "sid": N, "applied": N, "search_ok": N,
                    "search_miss": N, "insert_ok": N, "insert_fail": N,
                    "remove_ok": N, "remove_fail": N, "batches": N,
                    "max_batch": N, "takeovers": N,
                    "throughput_mops": x, "final_size": N,
                    "sojourn_ns": <pdist> | null }, ... ],
      "enqueue_waits": N, "takeovers": N, "crashed": [tid, ...],
      "faults": N, "checked": b, "violation": str | null,
      "linearizable": b | null, "final_size": N,
      "stats": { <the Results.stats_json counter set> } }
    v}
    where <pdist> is [{ "count": N, "mean": x, "p50": x, "p99": x,
    "p999": x }].  Native smoke records use ["kind": "service-native"]
    and carry only wall-clock throughput plus the oracle verdict.

    Runs with the resilient request layer enabled additionally carry
    {v
      "resilience": { "config": { ...Resilience.config_json... },
                      "metrics": { ...Resilience.metrics_json... } }
    v}
    — and only those, so legacy records stay byte-identical.

    This module also owns RESIL_matrix.json (schema version 1), the
    fault-matrix artifact of [ascy_serve -resil]: one record per
    (scenario x fault kind) cell with the composed fault plan, the
    declared vs observed delivery semantics, the oracle verdict, the
    resilience counters, and the inline bit-for-bit replay verdict:
    {v
    { "version": 1, "kind": "ascy-resil-matrix", "seed": N, "model": s,
      "scale": s,
      "runs": [
        { "scenario": s, "fault": s, "declared_semantics": s,
          "faults": [ <Replay fault events, decision-indexed> ],
          "ops_requested": N, "ops_applied": N,
          "violation": str | null, "replay_identical": b,
          "resilience": { "config": {...}, "metrics": {...} } }, ... ] }
    v} *)

module J = Ascy_util.Json
module Results = Ascy_harness.Results

let shard_json (ss : Service_run.shard_stat) =
  J.Obj
    [
      ("sid", J.Int ss.Service_run.ss_sid);
      ("applied", J.Int ss.Service_run.ss_applied);
      ("search_ok", J.Int ss.Service_run.ss_search_ok);
      ("search_miss", J.Int ss.Service_run.ss_search_miss);
      ("insert_ok", J.Int ss.Service_run.ss_insert_ok);
      ("insert_fail", J.Int ss.Service_run.ss_insert_fail);
      ("remove_ok", J.Int ss.Service_run.ss_remove_ok);
      ("remove_fail", J.Int ss.Service_run.ss_remove_fail);
      ("batches", J.Int ss.Service_run.ss_batches);
      ("max_batch", J.Int ss.Service_run.ss_max_batch);
      ("takeovers", J.Int ss.Service_run.ss_takeovers);
      ("throughput_mops", J.Float ss.Service_run.ss_throughput_mops);
      ("final_size", J.Int ss.Service_run.ss_final_size);
      ("sojourn_ns", Results.percentile_summary_json ss.Service_run.ss_sojourn);
    ]

(** Serialize one simulated service run.  Every field is derived from
    simulated cycles or deterministic counters — same seed, same bytes
    (the only wall-clock field in a BENCH file is the sink's
    [generated_at_unix]). *)
let of_run ?(label = "") (r : Service_run.result) =
  J.Obj
    ([
      ("label", J.String label);
      ("kind", J.String "service");
      ("scenario", Scenario.to_json r.Service_run.scenario);
      ("algorithm", J.String r.Service_run.algorithm);
      ("platform", J.String r.Service_run.platform);
      ("nthreads", J.Int r.Service_run.nthreads);
      ("seed", J.Int r.Service_run.seed);
      ("model", J.String r.Service_run.model);
      ("ops_requested", J.Int r.Service_run.ops_requested);
      ("ops_applied", J.Int r.Service_run.ops_applied);
      ("seconds", J.Float r.Service_run.seconds);
      ("throughput_mops", J.Float r.Service_run.throughput_mops);
      ( "latency_ns",
        J.Obj
          [
            ("sojourn", Results.percentile_summary_json r.Service_run.sojourn);
            ("service", Results.percentile_summary_json r.Service_run.service);
          ] );
      ("shards", J.List (Array.to_list (Array.map shard_json r.Service_run.shard_stats)));
      ("enqueue_waits", J.Int r.Service_run.enq_waits);
      ("takeovers", J.Int r.Service_run.takeovers);
      ("crashed", J.List (List.map (fun tid -> J.Int tid) r.Service_run.crashed));
      ("faults", J.Int (List.length r.Service_run.faults));
      ("checked", J.Bool r.Service_run.checked);
      ( "violation",
        match r.Service_run.violation with Some v -> J.String v | None -> J.Null );
      ( "linearizable",
        match r.Service_run.linearizable with Some b -> J.Bool b | None -> J.Null );
      ("final_size", J.Int r.Service_run.final_size);
      ("stats", Results.stats_json r.Service_run.stats);
    ]
    @
    (* only resilient runs carry the block, so legacy records (and the
       golden file pinning them) are byte-identical to schema 1 *)
    (if r.Service_run.resil.Resilience.enabled then
       [
         ( "resilience",
           J.Obj
             [
               ("config", Resilience.config_json r.Service_run.resil);
               ("metrics", Resilience.metrics_json r.Service_run.rmetrics);
             ] );
       ]
     else []))

(** Serialize one native (real-domains) smoke run.  Wall-clock timing:
    not deterministic, and excluded from byte-identity claims. *)
let of_native_run ?(label = "") (r : Service_native.result) =
  J.Obj
    [
      ("label", J.String label);
      ("kind", J.String "service-native");
      ("scenario", Scenario.to_json r.Service_native.scenario);
      ("algorithm", J.String r.Service_native.algorithm);
      ("nthreads", J.Int r.Service_native.nthreads);
      ("seed", J.Int r.Service_native.seed);
      ("ops_requested", J.Int r.Service_native.ops_requested);
      ("ops_applied", J.Int r.Service_native.ops_applied);
      ("seconds", J.Float r.Service_native.seconds);
      ("throughput_mops", J.Float r.Service_native.throughput_mops);
      ( "per_shard_applied",
        J.List (Array.to_list (Array.map (fun n -> J.Int n) r.Service_native.per_shard_applied))
      );
      ("enqueue_waits", J.Int r.Service_native.enq_waits);
      ( "violation",
        match r.Service_native.violation with Some v -> J.String v | None -> J.Null );
      ("final_size", J.Int r.Service_native.final_size);
    ]

(* ------------------------------------------------------------------ *)
(* RESIL_matrix.json (schema v1)                                       *)
(* ------------------------------------------------------------------ *)

(** One (scenario x fault kind) cell of the resilience matrix.
    [replay_identical] is the driver's inline determinism check: the
    same seed and fault plan re-executed and serialized to the same
    bytes. *)
let resil_entry ~fault_kind ~replay_identical (r : Service_run.result) =
  let declared =
    if r.Service_run.resil.Resilience.dedup_window > 0 then "at-most-once-applied"
    else "may-apply-duplicates"
  in
  J.Obj
    [
      ("scenario", J.String r.Service_run.scenario.Scenario.name);
      ("fault", J.String fault_kind);
      ("declared_semantics", J.String declared);
      ("faults", J.List (List.map Ascy_sct.Replay.fault_to_json r.Service_run.faults));
      ("ops_requested", J.Int r.Service_run.ops_requested);
      ("ops_applied", J.Int r.Service_run.ops_applied);
      ("takeovers", J.Int r.Service_run.takeovers);
      ( "violation",
        match r.Service_run.violation with Some v -> J.String v | None -> J.Null );
      ("replay_identical", J.Bool replay_identical);
      ( "resilience",
        J.Obj
          [
            ("config", Resilience.config_json r.Service_run.resil);
            ("metrics", Resilience.metrics_json r.Service_run.rmetrics);
          ] );
    ]

let resil_matrix ~seed ~model ~scale entries =
  J.Obj
    [
      ("version", J.Int 1);
      ("kind", J.String "ascy-resil-matrix");
      ("seed", J.Int seed);
      ("model", J.String model);
      ("scale", J.String scale);
      ("runs", J.List entries);
    ]

(** Write RESIL_matrix.json next to the BENCH files (the
    [ASCY_BENCH_OUT] directory). *)
let write_resil_matrix j =
  let path = Filename.concat (Results.out_dir ()) "RESIL_matrix.json" in
  J.to_file path j;
  path
