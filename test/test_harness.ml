(* Harness-level tests: workload mix, simulated-run determinism, and —
   most importantly — that the ASCY patterns are *observable* in the
   simulator's event streams, which is what the whole reproduction
   hinges on. *)

module W = Ascy_harness.Workload
module R = Ascy_harness.Sim_run
module P = Ascy_platform.Platform
module E = Ascy_mem.Event

let maker name = (Ascylib.Registry.by_name name).Ascylib.Registry.maker

let run ?(latency = false) ?(updates = 10) ?(threads = 8) ?(initial = 128) ?(ops = 200) name =
  let wl = W.make ~initial ~update_pct:updates () in
  R.run ~latency (maker name) ~platform:P.xeon20 ~nthreads:threads ~workload:wl
    ~ops_per_thread:ops ()

let test_workload_mix () =
  let wl = W.make ~initial:1024 ~update_pct:20 () in
  let rng = Ascy_util.Xorshift.create 3 in
  let upd = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match W.pick_op wl rng with
    | W.Insert | W.Remove -> incr upd
    | W.Search -> ()
  done;
  let pct = 100.0 *. float_of_int !upd /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "update mix ~20%% (got %.1f)" pct) true
    (pct > 17.0 && pct < 23.0);
  let k = W.pick_key wl rng in
  Alcotest.(check bool) "keys in [1, 2N]" true (k >= 1 && k <= 2048)

(* The update range must split evenly between inserts and removes for
   ANY update_pct, including odd ones: the old single-[below 100] picker
   gave inserts 13 of the 25 values at the paper's high-contention 25%,
   an E[ins - rem] = N/25 size drift.  Unbiased, |ins - rem| is a
   +-sqrt(N) random walk: bound it far below the old bias. *)
let test_pick_op_parity () =
  List.iter
    (fun update_pct ->
      let wl = W.make ~initial:1024 ~update_pct () in
      let rng = Ascy_util.Xorshift.create 11 in
      let ins = ref 0 and rem = ref 0 and n = 200_000 in
      for _ = 1 to n do
        match W.pick_op wl rng with
        | W.Insert -> incr ins
        | W.Remove -> incr rem
        | W.Search -> ()
      done;
      let diff = abs (!ins - !rem) in
      (* old bias at 25%: E[diff] = 8000 over 200k draws; unbiased
         sigma ~= sqrt(50k) ~= 224 *)
      Alcotest.(check bool)
        (Printf.sprintf "pct %d: |ins - rem| = %d small" update_pct diff)
        true (diff < 1_500);
      let pct = 100.0 *. float_of_int (!ins + !rem) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "pct %d: update mix %.2f%%" update_pct pct)
        true
        (Float.abs (pct -. float_of_int update_pct) < 1.0))
    [ 25; 10; 1 ]

(* Cold draws must come from the complement of the hot prefix: the old
   cold branch sampled the whole range, leaking hot_keys/key_range of
   the cold mass back into the prefix (effective 82% instead of 80%
   at hot=10/range=100). *)
let test_pick_key_skewed_exact () =
  let wl = W.make ~key_range:100 ~initial:50 ~update_pct:0 () in
  let skew = { W.hot_keys = 10; hot_pct = 80 } in
  let rng = Ascy_util.Xorshift.create 13 in
  let hot = ref 0 and n = 200_000 in
  for _ = 1 to n do
    let k = W.pick_key_skewed wl skew rng in
    if k < 1 || k > 100 then Alcotest.failf "key %d out of range" k;
    if k <= 10 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int n in
  (* sigma ~= 0.0009; the old leak sat at 0.82 *)
  Alcotest.(check bool)
    (Printf.sprintf "hot fraction %.4f is exactly 0.80" frac)
    true
    (frac > 0.79 && frac < 0.81);
  (* degenerate case: everything hot falls back to uniform *)
  let all_hot = W.pick_key_skewed wl { W.hot_keys = 200; hot_pct = 0 } rng in
  Alcotest.(check bool) "degenerate stays in range" true (all_hot >= 1 && all_hot <= 100)

let test_determinism () =
  let a = run ~latency:true "ll-lazy" and b = run ~latency:true "ll-lazy" in
  Alcotest.(check (float 0.0)) "same seed, same throughput" a.R.throughput_mops b.R.throughput_mops;
  Alcotest.(check int) "same makespan" a.R.stats.Ascy_mem.Sim.makespan_cycles
    b.R.stats.Ascy_mem.Sim.makespan_cycles

let test_seed_changes_schedule () =
  let wl = W.make ~initial:128 ~update_pct:20 () in
  let a = R.run ~seed:1 (maker "ll-lazy") ~platform:P.xeon20 ~nthreads:8 ~workload:wl ~ops_per_thread:200 () in
  let b = R.run ~seed:2 (maker "ll-lazy") ~platform:P.xeon20 ~nthreads:8 ~workload:wl ~ops_per_thread:200 () in
  Alcotest.(check bool) "different seeds, different makespan" true
    (a.R.stats.Ascy_mem.Sim.makespan_cycles <> b.R.stats.Ascy_mem.Sim.makespan_cycles)

let test_size_stays_near_initial () =
  let r = run ~updates:40 ~initial:256 ~ops:400 "ht-clht-lb" in
  Alcotest.(check bool)
    (Printf.sprintf "size near initial (got %d)" r.R.final_size)
    true
    (r.R.final_size > 128 && r.R.final_size < 512)

(* ASCY1: a read-only workload on an ASCY1 algorithm performs no atomic
   operations and takes no locks; an anti-ASCY design (coupling) locks
   on every hop. *)
let test_ascy1_observable () =
  let lazy_r = run ~updates:0 "ll-lazy" in
  Alcotest.(check int) "lazy searches: no atomics" 0 lazy_r.R.stats.Ascy_mem.Sim.atomics;
  Alcotest.(check int) "lazy searches: no locks" 0 lazy_r.R.stats.Ascy_mem.Sim.events.(E.lock);
  let coup = run ~updates:0 "ll-coupling" in
  Alcotest.(check bool) "coupling searches lock constantly" true
    (coup.R.stats.Ascy_mem.Sim.events.(E.lock) > coup.R.ops)

(* ASCY2: fraser restarts parses; fraser-opt keeps extra parses an order
   of magnitude lower under the same contended workload. *)
let test_ascy2_observable () =
  let fr = run ~updates:40 ~threads:16 ~initial:64 ~ops:400 "sl-fraser" in
  let fo = run ~updates:40 ~threads:16 ~initial:64 ~ops:400 "sl-fraser-opt" in
  Alcotest.(check bool)
    (Printf.sprintf "fraser restarts (%d) > fraser-opt restarts (%d)"
       fr.R.stats.Ascy_mem.Sim.events.(E.restart)
       fo.R.stats.Ascy_mem.Sim.events.(E.restart))
    true
    (fr.R.stats.Ascy_mem.Sim.events.(E.restart) > fo.R.stats.Ascy_mem.Sim.events.(E.restart))

(* ASCY3: with read-only failures, a doomed update costs about a search;
   without, it pays locks.  Compare lock counts on a zero-success
   workload (inserting keys that all exist). *)
let test_ascy3_observable () =
  let module A = (val maker "ht-lazy") in
  let count_locks rof =
    Ascy_mem.Sim.with_sim ~platform:P.xeon20 ~nthreads:4 (fun sim ->
        let module M = A (Ascy_mem.Sim.Mem) in
        let t = M.create ~hint:64 ~read_only_fail:rof () in
        for k = 1 to 64 do
          ignore (M.insert t k 0)
        done;
        let body _ () =
          for k = 1 to 64 do
            assert (not (M.insert t k 1))
          done
        in
        let makespan = Ascy_mem.Sim.run sim (Array.init 4 body) in
        (Ascy_mem.Sim.stats sim ~makespan).Ascy_mem.Sim.events.(E.lock))
  in
  Alcotest.(check int) "ASCY3: failed inserts take no locks" 0 (count_locks true);
  Alcotest.(check bool) "-no variant locks on every failed insert" true (count_locks false > 200)

(* ASCY4: natarajan uses ~2 atomics per successful update, the helping
   designs measurably more. *)
let test_ascy4_observable () =
  let nat = run ~updates:40 ~threads:8 ~initial:256 ~ops:300 "bst-natarajan" in
  let ell = run ~updates:40 ~threads:8 ~initial:256 ~ops:300 "bst-ellen" in
  let a_nat = R.atomics_per_update nat and a_ell = R.atomics_per_update ell in
  Alcotest.(check bool)
    (Printf.sprintf "natarajan %.2f < ellen %.2f atomics/update" a_nat a_ell)
    true (a_nat < a_ell);
  Alcotest.(check bool) "natarajan close to 2" true (a_nat < 3.0)

(* Latency classes: with ASCY3, failed updates are cheaper than
   successful ones. *)
let test_failed_updates_cheaper () =
  let r = run ~latency:true ~updates:40 ~threads:8 ~initial:256 ~ops:400 "ht-clht-lb" in
  let ok = Ascy_util.Histogram.mean r.R.latencies.R.insert_ok in
  let fail = Ascy_util.Histogram.mean r.R.latencies.R.insert_fail in
  Alcotest.(check bool) (Printf.sprintf "fail %.0f < ok %.0f" fail ok) true (fail < ok)

(* The asynchronized baseline beats (or matches) every correct algorithm
   of its family — the paper's upper-bound methodology. *)
let test_async_upper_bound () =
  let async = run ~updates:10 ~threads:8 "ll-async" in
  List.iter
    (fun name ->
      let r = run ~updates:10 ~threads:8 name in
      Alcotest.(check bool)
        (Printf.sprintf "%s (%.2f) <= async (%.2f) * 1.1" name r.R.throughput_mops
           async.R.throughput_mops)
        true
        (r.R.throughput_mops <= async.R.throughput_mops *. 1.1))
    [ "ll-coupling"; "ll-lazy"; "ll-pugh"; "ll-harris"; "ll-harris-opt" ]

(* Simulated transactions: commit applies writes; conflicts roll back. *)
let test_txn_commit_and_abort () =
  Ascy_mem.Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let module M = Ascy_mem.Sim.Mem in
      let a = M.make_fresh 0 and b = M.make_fresh 0 in
      let committed = ref 0 and aborted = ref 0 in
      let body tid () =
        if tid = 0 then begin
          (* make the line "hot" in core 0's cache in modified state *)
          M.set a 100;
          M.work 50
        end
        else begin
          M.work 5;
          (* conflicting txn: reads a line owned by core 0 -> abort *)
          (match M.txn (fun () -> M.set a (M.get a + 1)) with
          | Some _ -> incr committed
          | None -> incr aborted);
          (* non-conflicting txn on a private line -> commit *)
          match M.txn (fun () -> M.set b 42) with
          | Some _ -> incr committed
          | None -> incr aborted
        end
      in
      ignore (Ascy_mem.Sim.run sim (Array.init 2 body));
      Alcotest.(check int) "conflicting txn aborted" 1 !aborted;
      Alcotest.(check int) "private txn committed" 1 !committed;
      Alcotest.(check int) "aborted write rolled back" 100 (M.get a);
      Alcotest.(check int) "committed write applied" 42 (M.get b))

let test_native_txn_is_none () =
  Alcotest.(check bool) "no HTM natively" true (Ascy_mem.Mem_native.txn (fun () -> 1) = None)

(* ------------------------------------------------------------------ *)
(* History recording + linearizability checking                        *)
(* ------------------------------------------------------------------ *)

module Hist = Ascy_harness.History

let ev h ~tid ~kind ~key ~result ~inv ~res = Hist.record h ~tid ~kind ~key ~result ~inv ~res

(* Concurrent insert/search where only one order explains the results:
   the checker must find it. *)
let test_history_accepts_reordering () =
  let h = Hist.create () in
  (* search overlaps the insert and misses: linearize it first *)
  ev h ~tid:0 ~kind:Hist.Insert ~key:1 ~result:true ~inv:0 ~res:100;
  ev h ~tid:1 ~kind:Hist.Search ~key:1 ~result:false ~inv:50 ~res:60;
  (* later search finds it *)
  ev h ~tid:1 ~kind:Hist.Search ~key:1 ~result:true ~inv:200 ~res:210;
  Alcotest.(check bool) "linearizable" true (Hist.linearizable h)

let test_history_respects_realtime_order () =
  let h = Hist.create () in
  (* the search STARTS after the insert RESPONDED, so it cannot be
     linearized before the insert — result false is a violation *)
  ev h ~tid:0 ~kind:Hist.Insert ~key:1 ~result:true ~inv:0 ~res:100;
  ev h ~tid:1 ~kind:Hist.Search ~key:1 ~result:false ~inv:150 ~res:160;
  Alcotest.(check bool) "non-linearizable" false (Hist.linearizable h)

let test_history_double_insert () =
  let h = Hist.create () in
  (* two non-overlapping successful inserts of the same key with no
     remove in between: impossible for a set *)
  ev h ~tid:0 ~kind:Hist.Insert ~key:3 ~result:true ~inv:0 ~res:10;
  ev h ~tid:1 ~kind:Hist.Insert ~key:3 ~result:true ~inv:20 ~res:30;
  (match Hist.check h with
  | Ok () -> Alcotest.fail "double insert accepted"
  | Error v -> Alcotest.(check int) "violating key" 3 v.Hist.v_key);
  (* ...but fine if a remove overlaps the second insert *)
  let h2 = Hist.create () in
  ev h2 ~tid:0 ~kind:Hist.Insert ~key:3 ~result:true ~inv:0 ~res:10;
  ev h2 ~tid:1 ~kind:Hist.Insert ~key:3 ~result:true ~inv:20 ~res:30;
  ev h2 ~tid:2 ~kind:Hist.Remove ~key:3 ~result:true ~inv:15 ~res:35;
  Alcotest.(check bool) "remove in between explains it" true (Hist.linearizable h2)

let test_history_initial_state () =
  let h = Hist.create () in
  Hist.add_initial h 9;
  ev h ~tid:0 ~kind:Hist.Remove ~key:9 ~result:true ~inv:0 ~res:10;
  ev h ~tid:0 ~kind:Hist.Search ~key:9 ~result:false ~inv:20 ~res:30;
  Alcotest.(check bool) "prefilled key removable" true (Hist.linearizable h);
  let h2 = Hist.create () in
  ev h2 ~tid:0 ~kind:Hist.Remove ~key:9 ~result:true ~inv:0 ~res:10;
  Alcotest.(check bool) "remove from empty set fails" false (Hist.linearizable h2)

(* End-to-end: Sim_run with ?history on a correct algorithm. *)
let test_sim_run_history_linearizable () =
  let wl = W.make ~initial:16 ~update_pct:50 () in
  let h = Hist.create () in
  let r =
    R.run ~history:h (maker "ht-clht-lb") ~platform:P.xeon20 ~nthreads:6 ~workload:wl
      ~ops_per_thread:40 ()
  in
  Alcotest.(check int) "every op recorded" r.R.ops (Hist.length h);
  match Hist.check h with
  | Ok () -> ()
  | Error v -> Alcotest.failf "clht history not linearizable: %s" (Hist.pp_violation v)

(* Intentionally seeded non-linearizable mutation: a wrapper whose
   [remove] always claims success.  The checker must catch it. *)
let lying_remove_maker (module A : Ascy_core.Set_intf.MAKER) : (module Ascy_core.Set_intf.MAKER)
    =
  (module functor (Mem : Ascy_mem.Memory.S) -> struct
    include A (Mem)

    let remove t k =
      ignore (remove t k);
      true
  end)

let test_history_catches_seeded_mutation () =
  let wl = W.make ~initial:8 ~update_pct:60 () in
  let h = Hist.create () in
  ignore
    (R.run ~history:h
       (lying_remove_maker (maker "ll-lazy"))
       ~platform:P.xeon20 ~nthreads:4 ~workload:wl ~ops_per_thread:30 ());
  match Hist.check h with
  | Ok () -> Alcotest.fail "seeded lying-remove mutation went undetected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Trace ring buffers                                                  *)
(* ------------------------------------------------------------------ *)

module Sim = Ascy_mem.Sim
module Trace = Ascy_analysis.Trace
module Engine = Ascy_harness.Engine

(* [f sim ring] inside an engine session whose observer is a fresh
   trace ring of [capacity] entries per thread. *)
let with_ring ~nthreads ~capacity f =
  let ring = Trace.create ~nthreads ~capacity in
  Engine.with_session
    { (Engine.default ~platform:P.xeon20 ~nthreads) with observer = Some (Trace.observer ring) }
    (fun session -> f session.Engine.sim ring)

let test_trace_records_ops_and_accesses () =
  with_ring ~nthreads:2 ~capacity:4096 (fun sim ring ->
      let x = Sim.Mem.make_fresh 0 in
      let body tid () =
        Sim.op_start 1;
        for _ = 1 to 5 do
          Sim.Mem.set x (Sim.Mem.get x + tid)
        done;
        Sim.op_end 1
      in
      ignore (Sim.run sim (Array.init 2 body));
      List.iter
        (fun tid ->
          let entries = Trace.entries ring tid in
          Alcotest.(check bool) "has entries" true (List.length entries > 0);
          let starts, ends, accesses =
            List.fold_left
              (fun (s, e, a) (en : Trace.entry) ->
                match en.Trace.tr_ev with
                | Trace.T_op_start _ -> (s + 1, e, a)
                | Trace.T_op_end _ -> (s, e + 1, a)
                | Trace.T_access _ -> (s, e, a + 1))
              (0, 0, 0) entries
          in
          Alcotest.(check int) "one op_start" 1 starts;
          Alcotest.(check int) "one op_end" 1 ends;
          Alcotest.(check int) "10 traced accesses" 10 accesses;
          (* cycle stamps are nondecreasing within a thread *)
          let rec mono = function
            | (a : Trace.entry) :: (b : Trace.entry) :: tl ->
                a.Trace.tr_cycle <= b.Trace.tr_cycle && mono (b :: tl)
            | _ -> true
          in
          Alcotest.(check bool) "cycles nondecreasing" true (mono entries))
        [ 0; 1 ])

let test_trace_ring_wraps () =
  with_ring ~nthreads:1 ~capacity:8 (fun sim ring ->
      let x = Sim.Mem.make_fresh 0 in
      let body _ () =
        for _ = 1 to 50 do
          Sim.Mem.set x (Sim.Mem.get x + 1)
        done
      in
      ignore (Sim.run sim [| body 0 |]);
      Alcotest.(check int) "ring keeps capacity entries" 8 (List.length (Trace.entries ring 0));
      Alcotest.(check bool) "total counts everything" true (Trace.total ring 0 >= 100))

(* A default session installs no observer, and a ring that is not
   attached records nothing. *)
let test_trace_off_by_default () =
  let cfg = Engine.default ~platform:P.xeon20 ~nthreads:1 in
  Alcotest.(check bool) "no observer by default" true (cfg.Engine.observer = None);
  let ring = Trace.create ~nthreads:1 ~capacity:8 in
  Engine.with_session cfg (fun session ->
      let x = Sim.Mem.make_fresh 0 in
      ignore (Engine.run session [| (fun () -> Sim.Mem.set x 1) |]));
  Alcotest.(check int) "no entries" 0 (List.length (Trace.entries ring 0));
  Alcotest.(check int) "no totals" 0 (Trace.total ring 0)

let test_trace_dump_renders () =
  with_ring ~nthreads:1 ~capacity:64 (fun sim ring ->
      let x = Sim.Mem.make_fresh 0 in
      ignore (Sim.run sim [| (fun () -> Sim.Mem.set x 1) |]);
      let tmp = Filename.temp_file "ascy_trace" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out tmp in
          Trace.dump oc ring;
          close_out oc;
          let ic = open_in tmp in
          let line = input_line ic in
          close_in ic;
          Alcotest.(check bool) "text header present" true
            (String.length line > 0 && String.sub line 0 2 = "--");
          let oc = open_out tmp in
          Trace.dump ~json:true oc ring;
          close_out oc;
          let ic = open_in tmp in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          match Ascy_util.Json.of_string (String.trim s) with
          | Ascy_util.Json.List (_ :: _) -> ()
          | _ -> Alcotest.fail "json dump is not a non-empty array"))

(* The text dump of a fixed two-thread program without k-CAS, captured
   from the trace rings as they were before they became an observer:
   the same events, classes and cycle stamps, and a ring that wrapped
   (12 events, 6 retained). *)
let pinned_dump =
  {|-- thread 0: 12 events (6 retained)
t0   @428        op_start 2
t0   @428        R   line=0      l1
t0   @434        W   line=0      llc
t0   @478        R   line=1      l1
t0   @484        RMW line=1      l1
t0   @512        op_end   2
-- thread 1: 12 events (6 retained)
t1   @388        op_start 2
t1   @388        R   line=0      c2c_local
t1   @452        W   line=0      c2c_local
t1   @516        R   line=1      c2c_local
t1   @580        RMW line=1      llc
t1   @646        op_end   2
|}

let test_trace_dump_pinned () =
  with_ring ~nthreads:2 ~capacity:6 (fun sim ring ->
      let x = Sim.Mem.make_fresh 0 and y = Sim.Mem.make_fresh 0 in
      let body tid () =
        for op = 1 to 2 do
          Sim.op_start op;
          Sim.Mem.set x (Sim.Mem.get x + tid);
          ignore (Sim.Mem.cas y (Sim.Mem.get y) op);
          Sim.op_end op
        done
      in
      ignore (Sim.run sim (Array.init 2 body));
      let tmp = Filename.temp_file "ascy_trace" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove tmp)
        (fun () ->
          let oc = open_out tmp in
          Trace.dump oc ring;
          close_out oc;
          let ic = open_in tmp in
          let got = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check string) "text dump" pinned_dump got))

(* ------------------------------------------------------------------ *)
(* Structured results: schema round-trip + golden file                 *)
(* ------------------------------------------------------------------ *)

module Res = Ascy_harness.Results
module J = Ascy_util.Json

(* A fully deterministic synthetic result: golden-file stability must
   not depend on simulator internals. *)
let synthetic_result () : R.result =
  let lat = R.fresh_latencies () in
  List.iter (Ascy_util.Histogram.add lat.R.search_hit) [ 10.0; 20.0; 30.0; 40.0 ];
  Ascy_util.Histogram.add lat.R.insert_ok 15.0;
  {
    R.algorithm = "golden-algo";
    platform = "Xeon20";
    nthreads = 4;
    seed = 7;
    ops_per_thread = 25;
    workload = W.make ~initial:16 ~update_pct:20 ();
    ops = 100;
    updates_attempted = 20;
    updates_successful = 10;
    seconds = 0.001;
    throughput_mops = 0.1;
    stats =
      {
        Ascy_mem.Sim.makespan_cycles = 2300;
        seconds = 0.001;
        accesses = 1000;
        hits_l1 = 900;
        hits_llc = 50;
        transfers_local = 20;
        transfers_remote = 10;
        fetch_remote = 5;
        misses_mem = 15;
        atomics = 30;
        stores = 120;
        energy_j = 0.5;
        power_w = 500.0;
        events = Array.init Ascy_mem.Event.count (fun i -> i);
      };
    thread_stats =
      [|
        {
          Ascy_mem.Sim.t_tid = 0;
          t_accesses = 500;
          t_l1 = 450;
          t_llc = 25;
          t_c2c_local = 10;
          t_c2c_remote = 5;
          t_llc_remote = 3;
          t_mem = 7;
          t_atomics = 15;
          t_stores = 60;
          t_energy_nj = 0.25e9;
        };
        {
          Ascy_mem.Sim.t_tid = 1;
          t_accesses = 500;
          t_l1 = 450;
          t_llc = 25;
          t_c2c_local = 10;
          t_c2c_remote = 5;
          t_llc_remote = 2;
          t_mem = 8;
          t_atomics = 15;
          t_stores = 60;
          t_energy_nj = 0.25e9;
        };
      |];
    latencies = lat;
    final_size = 17;
  }

let test_results_roundtrip () =
  let j = Res.of_sim_run ~label:"golden" (synthetic_result ()) in
  let j' = J.of_string (J.to_string ~indent:1 j) in
  Alcotest.(check bool) "serialized record parses back equal" true (j = j');
  (* spot-check the fields downstream tooling keys on *)
  let get k = match J.member k j' with Some v -> v | None -> Alcotest.failf "missing %s" k in
  Alcotest.(check (option string)) "algorithm" (Some "golden-algo") (J.to_string_opt (get "algorithm"));
  Alcotest.(check (option int)) "nthreads" (Some 4) (J.to_int_opt (get "nthreads"));
  let stats = get "stats" in
  Alcotest.(check (option int)) "atomics" (Some 30)
    (Option.bind (J.member "atomics" stats) J.to_int_opt);
  let lat = get "latency_ns" in
  let sh = match J.member "search_hit" lat with Some v -> v | None -> Alcotest.fail "no search_hit" in
  Alcotest.(check (option int)) "lat count" (Some 4)
    (Option.bind (J.member "count" sh) J.to_int_opt);
  Alcotest.(check bool) "p99 present" true (J.member "p99" sh <> None);
  Alcotest.(check bool) "empty class is null" true (J.member "remove_ok" lat = Some J.Null)

(* The committed golden file pins the schema: if serialization changes,
   this fails and the schema_version must be bumped (regenerate with
   `dune exec test/gen_golden.exe > test/results_golden.json`). *)
let test_results_golden_file () =
  (* dune runtest runs from _build/default/test; dune exec from the root *)
  let golden =
    if Sys.file_exists "results_golden.json" then "results_golden.json"
    else "test/results_golden.json"
  in
  let ic = open_in golden in
  let n = in_channel_length ic in
  let want = really_input_string ic n in
  close_in ic;
  let got = J.to_string ~indent:1 (Res.of_sim_run ~label:"golden" (synthetic_result ())) ^ "\n" in
  Alcotest.(check string) "golden serialization" want got;
  Alcotest.(check bool) "golden file parses" true
    (match J.of_string (String.trim want) with J.Obj _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "workload op mix" `Quick test_workload_mix;
    Alcotest.test_case "workload insert/remove parity" `Quick test_pick_op_parity;
    Alcotest.test_case "workload skew is exact" `Quick test_pick_key_skewed_exact;
    Alcotest.test_case "sim_run determinism" `Quick test_determinism;
    Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
    Alcotest.test_case "size stays near initial" `Quick test_size_stays_near_initial;
    Alcotest.test_case "ASCY1 observable (no stores in searches)" `Quick test_ascy1_observable;
    Alcotest.test_case "ASCY2 observable (parse restarts)" `Quick test_ascy2_observable;
    Alcotest.test_case "ASCY3 observable (read-only failures)" `Quick test_ascy3_observable;
    Alcotest.test_case "ASCY4 observable (atomics per update)" `Quick test_ascy4_observable;
    Alcotest.test_case "failed updates cheaper (latency classes)" `Quick test_failed_updates_cheaper;
    Alcotest.test_case "async is the upper bound" `Quick test_async_upper_bound;
    Alcotest.test_case "txn commit and abort" `Quick test_txn_commit_and_abort;
    Alcotest.test_case "native txn unavailable" `Quick test_native_txn_is_none;
    Alcotest.test_case "history: reordering accepted" `Quick test_history_accepts_reordering;
    Alcotest.test_case "history: real-time order enforced" `Quick test_history_respects_realtime_order;
    Alcotest.test_case "history: double insert" `Quick test_history_double_insert;
    Alcotest.test_case "history: initial state" `Quick test_history_initial_state;
    Alcotest.test_case "history: sim_run end-to-end" `Quick test_sim_run_history_linearizable;
    Alcotest.test_case "history: seeded mutation caught" `Quick test_history_catches_seeded_mutation;
    Alcotest.test_case "trace: ops and accesses recorded" `Quick test_trace_records_ops_and_accesses;
    Alcotest.test_case "trace: ring wraps at capacity" `Quick test_trace_ring_wraps;
    Alcotest.test_case "trace: off by default" `Quick test_trace_off_by_default;
    Alcotest.test_case "trace: dump renders text and json" `Quick test_trace_dump_renders;
    Alcotest.test_case "trace: text dump pinned" `Quick test_trace_dump_pinned;
    Alcotest.test_case "results: schema round-trip" `Quick test_results_roundtrip;
    Alcotest.test_case "results: golden file" `Quick test_results_golden_file;
  ]
