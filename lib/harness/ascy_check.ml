(** Observed ASCY1–4 compliance, derived from per-operation access
    profiles and checked against each registry entry's declared vector
    (paper Table 1).

    Two deterministic profiling runs per algorithm:
    - a {e contended} run (4 threads, small key range, 50% updates) that
      exercises the contention-dependent anti-patterns — search
      clean-ups and restarts, parse-phase restarts, waiting behind
      concurrent operations;
    - a {e single-threaded} run whose successful-update store counts are
      compared against the family's asynchronized ([*-async]) baseline
      under the identical workload — ASCY4's "close to sequential"
      measured as a ratio with a per-family budget
      ({!Ascylib.Registry.ascy4_budget}).

    The observed vector:
    - {b ASCY1}: no search performs a store (plain, successful {e or}
      attempted CAS), waits, restarts, or takes a lock;
    - {b ASCY2}: no update's parse phase waits, restarts, or locks, and
      any store it performs is accounted for by clean-up/helping
      emissions;
    - {b ASCY3}: at most {!max_failed_frac} of failed updates perform
      unaccounted stores (the slack tolerates rare lock-then-lose races
      in otherwise read-only-fail designs; lock-first designs fail on
      every unsuccessful update and blow far past it);
    - {b ASCY4}: no successful update ever waits, and the
      single-threaded weighted stores per successful update stay within
      the family budget of the asynchronized baseline.

    Asynchronized (sequential) entries are profiled single-threaded
    only — sharing them is incorrect by declaration, which is not what
    this analyzer measures. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module J = Ascy_util.Json
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy
module Profile = Ascy_analysis.Profile

(* ------------------------------------------------------------------ *)
(* Profiling runs                                                      *)
(* ------------------------------------------------------------------ *)

type cfg = {
  nthreads : int;
  initial : int;
  key_range : int;
  update_pct : int;
  ops_per_thread : int;
  seed : int;
}

let contended_cfg =
  { nthreads = 4; initial = 64; key_range = 128; update_pct = 50; ops_per_thread = 1500; seed = 1 }

let single_cfg =
  { nthreads = 1; initial = 128; key_range = 256; update_pct = 50; ops_per_thread = 4000; seed = 1 }

(* Structure-size hint per entry.  Defaults to the prefill size (one
   bucket per element for the tables, as the throughput harness does);
   overridden where the declared compliance is about asymptotic behavior
   the default load factor would mask:
   - ht-copy / ht-coupling: few buckets, so per-bucket snapshots and
     hand-over-hand chains operate at the load their ASCY4/ASCY1 entries
     describe;
   - ht-tbb: few buckets, so reader/writer lock contention (the
     anti-ASCY4 waiting) is actually exercised;
   - ht-urcu*: many buckets, so no resize is triggered — resizing takes
     every bucket lock and waits for a grace period, which is a
     different (and rare) code path than the per-operation pattern
     Table 1 declares. *)
let hint_for (entry : Registry.entry) cfg =
  match entry.Registry.name with
  | "ht-copy" | "ht-coupling" -> 4
  | "ht-tbb" -> 16
  | "ht-urcu" | "ht-urcu-ssmem" -> 8 * cfg.initial
  | _ -> cfg.initial

(** Profile one deterministic run of [entry] under [cfg]; returns every
    operation's phase-split access profile.  [model] selects the
    coherence cost model.  The profiles only count {e what} each
    operation does (stores, CAS outcomes, waits, restarts), never how
    long it takes — but the free-running schedule is latency-driven, so
    a different model can interleave the contended run differently and
    shift the contention-dependent counts.  The observed ASCY vectors
    are expected (and CI-checked) to be model-invariant; the raw counts
    are not. *)
let profile_run ?(model = Sim.default_model) (entry : Registry.entry) cfg =
  let module A = (val entry.Registry.maker : Ascy_core.Set_intf.MAKER) in
  let module M = A (Sim.Mem) in
  let saved = !Ascy_ssmem.Ssmem.gc_threshold in
  (* keep epoch-GC passes (batched, not per-op) out of the op profiles *)
  Ascy_ssmem.Ssmem.gc_threshold := 1_000_000;
  Fun.protect
    ~finally:(fun () -> Ascy_ssmem.Ssmem.gc_threshold := saved)
    (fun () ->
      let col = Profile.create ~nthreads:cfg.nthreads in
      (* prefill and warm-up run outside simulated time and notify no
         observer, so the profiles see only the measured operations *)
      Engine.with_session
        {
          (Engine.default ~platform:P.xeon20 ~nthreads:cfg.nthreads) with
          model;
          observer = Some (Profile.observer col);
        }
        (fun session ->
          let t = M.create ~hint:(hint_for entry cfg) () in
          let rng0 = Ascy_util.Xorshift.create ((cfg.seed * 31) + 7) in
          let filled = ref 0 in
          while !filled < cfg.initial do
            let k = 1 + Ascy_util.Xorshift.below rng0 cfg.key_range in
            if M.insert t k 0 then incr filled
          done;
          Sim.warm session.Engine.sim;
          let body tid () =
            let rng = Ascy_util.Xorshift.create ((cfg.seed * 7919) + (tid * 104729) + 13) in
            for _ = 1 to cfg.ops_per_thread do
              let k = 1 + Ascy_util.Xorshift.below rng cfg.key_range in
              let r = Ascy_util.Xorshift.below rng 100 in
              let op = if r >= cfg.update_pct then 0 else if r land 1 = 0 then 1 else 2 in
              Sim.op_start op;
              let ok =
                match op with
                | 0 -> M.search t k <> None
                | 1 -> M.insert t k tid
                | _ -> M.remove t k
              in
              Profile.set_outcome col ~tid ~ok;
              Sim.op_end op;
              M.op_done t
            done
          in
          ignore (Engine.run session (Array.init cfg.nthreads body));
          Profile.ops col))

(* ------------------------------------------------------------------ *)
(* Observed-compliance rules                                           *)
(* ------------------------------------------------------------------ *)

let max_failed_frac = 0.10

let comb f (p : Profile.op_profile) = f p.Profile.p_parse + f p.Profile.p_modify

(* ASCY1: a search stores nothing (not even a failed CAS), never waits,
   restarts or locks. *)
let search_violation p =
  (not (Profile.is_update p))
  && comb (fun c -> c.Profile.writes + c.Profile.rmw_ok + c.Profile.rmw_fail) p
     + comb (fun c -> c.Profile.waits) p
     + comb (fun c -> c.Profile.restarts) p
     + comb (fun c -> c.Profile.locks) p
     > 0

(* ASCY2: an update's parse phase never waits/restarts/locks, and any
   store it performs is clean-up or helping (which the algorithm marks). *)
let parse_violation p =
  Profile.is_update p
  &&
  let c = p.Profile.p_parse in
  c.Profile.waits > 0 || c.Profile.restarts > 0 || c.Profile.locks > 0
  || (Profile.stores c > 0 && c.Profile.cleanups + c.Profile.helps = 0)

(* ASCY3: a failed update performs no stores beyond parse clean-up. *)
let failed_violation p =
  Profile.is_update p
  && (not p.Profile.p_ok)
  && (Profile.stores p.Profile.p_modify > 0
     ||
     let c = p.Profile.p_parse in
     Profile.stores c > 0 && c.Profile.cleanups + c.Profile.helps = 0)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type measured = {
  m_searches : int;
  m_search_bad : int;
  m_updates : int;
  m_parse_bad : int;
  m_failed : int;
  m_failed_bad : int;
  m_failed_frac : float;
  m_successes : int;
  m_success_waits : int;
  m_wstores : float;  (** weighted stores / successful update, 1-thread run *)
  m_baseline_wstores : float;  (** same, for the family's async baseline *)
  m_ratio : float;
  m_budget : float;
}

type report = {
  entry : Registry.entry;
  observed : Ascy.compliance;
  measured : measured;
  witnesses : (string * Profile.op_profile) list;
      (** rule tag -> first offending op profile, for each observed-false
          dimension *)
}

let matches r = r.observed = r.entry.Registry.ascy

let avg_weighted_success ops =
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun p ->
      if Profile.is_update p && p.Profile.p_ok then begin
        incr n;
        sum := !sum + comb Profile.weighted p
      end)
    ops;
  if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n

(** Weighted stores per successful update of [entry]'s family baseline
    under the single-threaded profiling workload. *)
let baseline_wstores ?model family =
  avg_weighted_success (profile_run ?model (Registry.async_of family) single_cfg)

(** Derive [entry]'s observed compliance vector.  [baseline] avoids
    re-profiling the family baseline in sweeps. *)
let classify ?baseline ?model (entry : Registry.entry) =
  let single = profile_run ?model entry single_cfg in
  let contended =
    if entry.Registry.asynchronized || contended_cfg.nthreads = 1 then []
    else profile_run ?model entry contended_cfg
  in
  let all = single @ contended in
  let base =
    match baseline with Some b -> b | None -> baseline_wstores ?model entry.Registry.family
  in
  let count f = List.fold_left (fun acc p -> if f p then acc + 1 else acc) 0 all in
  let first f = List.find_opt f all in
  let searches = count (fun p -> not (Profile.is_update p)) in
  let search_bad = count search_violation in
  let updates = count Profile.is_update in
  let parse_bad = count parse_violation in
  let failed = count (fun p -> Profile.is_update p && not p.Profile.p_ok) in
  let failed_bad = count failed_violation in
  let failed_frac =
    if failed = 0 then 0.0 else float_of_int failed_bad /. float_of_int failed
  in
  let successes = count (fun p -> Profile.is_update p && p.Profile.p_ok) in
  let success_wait p =
    Profile.is_update p && p.Profile.p_ok && comb (fun c -> c.Profile.waits) p > 0
  in
  let success_waits = count success_wait in
  let wstores = avg_weighted_success single in
  let ratio = if base > 0.0 then wstores /. base else 1.0 in
  let budget = Registry.budget_of entry in
  let observed =
    {
      Ascy.a1 = search_bad = 0;
      a2 = parse_bad = 0;
      a3 = failed_frac <= max_failed_frac;
      a4 = success_waits = 0 && ratio <= budget;
    }
  in
  let witnesses =
    List.filter_map
      (fun (tag, violated, f) -> if violated then Option.map (fun p -> (tag, p)) (first f) else None)
      [
        ("ascy1", not observed.Ascy.a1, search_violation);
        ("ascy2", not observed.Ascy.a2, parse_violation);
        ("ascy3", not observed.Ascy.a3, failed_violation);
        ("ascy4", not observed.Ascy.a4, success_wait);
      ]
  in
  {
    entry;
    observed;
    measured =
      {
        m_searches = searches;
        m_search_bad = search_bad;
        m_updates = updates;
        m_parse_bad = parse_bad;
        m_failed = failed;
        m_failed_bad = failed_bad;
        m_failed_frac = failed_frac;
        m_successes = successes;
        m_success_waits = success_waits;
        m_wstores = wstores;
        m_baseline_wstores = base;
        m_ratio = ratio;
        m_budget = budget;
      };
    witnesses;
  }

(** Classify every registry algorithm, profiling each family baseline
    once.  Returns the reports in registry order. *)
let sweep ?(entries = Registry.all) ?model () =
  let baselines = Hashtbl.create 4 in
  let baseline_for family =
    match Hashtbl.find_opt baselines family with
    | Some b -> b
    | None ->
        let b = baseline_wstores ?model family in
        Hashtbl.add baselines family b;
        b
  in
  List.map (fun e -> classify ~baseline:(baseline_for e.Registry.family) ?model e) entries

(* ------------------------------------------------------------------ *)
(* Serialization (ASCY_CHECK.json)                                     *)
(* ------------------------------------------------------------------ *)

let compliance_json (c : Ascy.compliance) =
  J.Obj
    [
      ("a1", J.Bool c.Ascy.a1);
      ("a2", J.Bool c.Ascy.a2);
      ("a3", J.Bool c.Ascy.a3);
      ("a4", J.Bool c.Ascy.a4);
    ]

let measured_json m =
  J.Obj
    [
      ("searches", J.Int m.m_searches);
      ("search_violations", J.Int m.m_search_bad);
      ("updates", J.Int m.m_updates);
      ("parse_violations", J.Int m.m_parse_bad);
      ("failed_updates", J.Int m.m_failed);
      ("failed_update_violations", J.Int m.m_failed_bad);
      ("failed_violation_frac", J.Float m.m_failed_frac);
      ("successful_updates", J.Int m.m_successes);
      ("successful_updates_waiting", J.Int m.m_success_waits);
      ("weighted_stores_per_update", J.Float m.m_wstores);
      ("baseline_weighted_stores", J.Float m.m_baseline_wstores);
      ("store_ratio", J.Float m.m_ratio);
      ("store_budget", J.Float m.m_budget);
    ]

let report_json r =
  J.Obj
    [
      ("name", J.String r.entry.Registry.name);
      ("family", J.String (Ascy.family_to_string r.entry.Registry.family));
      ("sync", J.String (Ascy.sync_to_string r.entry.Registry.sync));
      ("declared", compliance_json r.entry.Registry.ascy);
      ("observed", compliance_json r.observed);
      ("match", J.Bool (matches r));
      ("measured", measured_json r.measured);
      ( "witnesses",
        J.List
          (List.map
             (fun (tag, p) -> J.Obj [ ("rule", J.String tag); ("op", Profile.op_json p) ])
             r.witnesses) );
    ]

let check_json reports =
  J.Obj
    [
      ("schema_version", J.Int 1);
      ( "workloads",
        J.Obj
          [
            ( "contended",
              J.Obj
                [
                  ("nthreads", J.Int contended_cfg.nthreads);
                  ("initial", J.Int contended_cfg.initial);
                  ("key_range", J.Int contended_cfg.key_range);
                  ("update_pct", J.Int contended_cfg.update_pct);
                  ("ops_per_thread", J.Int contended_cfg.ops_per_thread);
                ] );
            ( "single",
              J.Obj
                [
                  ("nthreads", J.Int single_cfg.nthreads);
                  ("initial", J.Int single_cfg.initial);
                  ("key_range", J.Int single_cfg.key_range);
                  ("update_pct", J.Int single_cfg.update_pct);
                  ("ops_per_thread", J.Int single_cfg.ops_per_thread);
                ] );
          ] );
      ("entries", J.List (List.map report_json reports));
    ]
