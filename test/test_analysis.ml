(* The analysis layer: happens-before race detection and ASCY
   conformance classification.

   Race detector, seeded both ways:
   - unsynchronized plain writes from two threads are flagged;
   - CAS-ordered, ttas-lock-protected and seqlock-ordered writes are
     not (every handoff is an RMW acquire of the releasing store);
   - a plain writer against a plain reader is deliberately not flagged
     (asynchronized searches race with updates by design — ASCY1);
   - through the SCT engine, the asynchronized list is rejected with a
     data-race violation, and one lock-based algorithm per family
     survives a bounded exploration with the oracle armed.

   Conformance, golden observed vectors:
   - ll-harris fails ASCY1-2 for the declared reason (restarting,
     cleaning searches; restarting parses) and passes 3-4;
   - ll-harris-opt, ll-lazy and the asynchronized baseline measure
     fully compliant, the baseline at ratio exactly 1. *)

module Sim = Ascy_mem.Sim
module Mem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Race = Ascy_analysis.Race
module Check = Ascy_harness.Ascy_check
module Registry = Ascylib.Registry
module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer

(* Run [body] (per-tid thunks) under the simulator with the race
   detector installed; return the distinct-race count. *)
let races_of ~nthreads body =
  Sim.with_sim ~seed:7 ~platform:P.xeon20 ~nthreads (fun sim ->
      let setup = body () in
      Sim.warm sim;
      let d = Race.create ~nthreads in
      Sim.set_observer sim (Some (Race.observer d));
      ignore (Sim.run sim (Array.init nthreads setup));
      Race.total d)

(* ------------------------------------------------------------------ *)
(* Seeded races: the detector must fire                                *)
(* ------------------------------------------------------------------ *)

let test_unsync_writers_flagged () =
  let n =
    races_of ~nthreads:2 (fun () ->
        let c = Mem.make_fresh 0 in
        fun tid () ->
          for i = 1 to 50 do
            Mem.set c ((tid * 1000) + i)
          done)
  in
  Alcotest.(check bool) "two plain writers race" true (n > 0)

let test_unsync_counter_flagged () =
  (* the classic lost-update pattern: read, add, plain store *)
  let n =
    races_of ~nthreads:3 (fun () ->
        let c = Mem.make_fresh 0 in
        fun _tid () ->
          for _ = 1 to 30 do
            Mem.set c (Mem.get c + 1)
          done)
  in
  Alcotest.(check bool) "unsynchronized counter races" true (n > 0)

(* ------------------------------------------------------------------ *)
(* Synchronized patterns: the detector must stay silent                *)
(* ------------------------------------------------------------------ *)

let test_cas_ordered_clean () =
  let n =
    races_of ~nthreads:4 (fun () ->
        let c = Mem.make_fresh 0 in
        fun _tid () ->
          for _ = 1 to 50 do
            let rec incr () =
              let v = Mem.get c in
              if not (Mem.cas c v (v + 1)) then incr ()
            in
            incr ()
          done)
  in
  Alcotest.(check int) "CAS-only updates are ordered" 0 n

let test_lock_protected_clean () =
  let module L = Ascy_locks.Ttas.Make (Mem) in
  let n =
    races_of ~nthreads:4 (fun () ->
        let lock = L.create_fresh () in
        let data = Mem.make_fresh 0 in
        fun tid () ->
          for i = 1 to 40 do
            L.acquire lock;
            Mem.set data ((tid * 1000) + i);
            L.release lock
          done)
  in
  Alcotest.(check int) "ttas-protected plain stores are ordered" 0 n

let test_seqlock_ordered_clean () =
  let module S = Ascy_locks.Seqlock.Make (Mem) in
  let n =
    races_of ~nthreads:3 (fun () ->
        let sl = S.create_fresh () in
        let data = Mem.make_fresh 0 in
        fun tid () ->
          if tid = 0 then
            (* optimistic readers: retries, never writes *)
            for _ = 1 to 40 do
              ignore (S.read sl (fun () -> Mem.get data))
            done
          else
            for i = 1 to 40 do
              ignore (S.write_acquire sl);
              Mem.set data ((tid * 1000) + i);
              S.write_release sl
            done)
  in
  Alcotest.(check int) "seqlock write sections are ordered" 0 n

let test_write_read_not_flagged () =
  (* an ASCY1 search racing an update is the paper's designed behavior *)
  let n =
    races_of ~nthreads:2 (fun () ->
        let c = Mem.make_fresh 0 in
        fun tid () ->
          if tid = 0 then
            for i = 1 to 50 do
              Mem.set c i
            done
          else
            for _ = 1 to 50 do
              ignore (Mem.get c)
            done)
  in
  Alcotest.(check int) "plain write vs plain read is exempt" 0 n

(* ------------------------------------------------------------------ *)
(* Through the SCT engine                                              *)
(* ------------------------------------------------------------------ *)

let duel name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2) |];
      |]
    ()

let small_bounds =
  {
    Explorer.preemptions = Some 1;
    delays = Some 3;
    max_steps = 50_000;
    max_schedules = Some 50_000;
  }

let test_sct_flags_async_list () =
  let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true (duel "ll-async") in
  match finding with
  | None -> Alcotest.fail "race oracle missed the asynchronized list"
  | Some f ->
      let is_race v =
        (* the race oracle runs before the structural/linearizability
           oracles, so the violation must be a data race *)
        let re = "data race" in
        let n = String.length v and m = String.length re in
        let rec at i = i + m <= n && (String.sub v i m = re || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "violation is a data race" true (is_race f.Sct.min_violation)

let race_free name () =
  let finding, _ =
    Sct.explore ~mode:Explorer.Dpor ~bounds:small_bounds ~races:true (duel name)
  in
  match finding with
  | None -> ()
  | Some f ->
      Alcotest.fail (Printf.sprintf "%s violated under race oracle: %s" name f.Sct.min_violation)

(* ------------------------------------------------------------------ *)
(* Conformance goldens                                                 *)
(* ------------------------------------------------------------------ *)

let golden_names = [ "ll-async"; "ll-lazy"; "ll-harris"; "ll-harris-opt" ]

let golden_reports =
  lazy (Check.sweep ~entries:(List.map Registry.by_name golden_names) ())

let report_of name =
  List.find
    (fun (r : Check.report) -> r.Check.entry.Registry.name = name)
    (Lazy.force golden_reports)

let check_vector name expected () =
  let r = report_of name in
  Alcotest.(check string)
    (name ^ " observed vector") expected
    (Ascy_core.Ascy.to_string r.Check.observed);
  Alcotest.(check bool) (name ^ " matches declared") true (Check.matches r)

let test_harris_fails_for_the_right_reason () =
  let r = report_of "ll-harris" in
  let m = r.Check.measured in
  Alcotest.(check bool) "some searches restarted or cleaned" true (m.Check.m_search_bad > 0);
  Alcotest.(check bool) "some parses restarted" true (m.Check.m_parse_bad > 0);
  Alcotest.(check bool) "still within the failed-update bound (ASCY3)" true
    (m.Check.m_failed_frac <= 0.10);
  Alcotest.(check int) "no waiting on successful updates (ASCY4)" 0 m.Check.m_success_waits;
  Alcotest.(check bool) "witness profiles recorded for each violated rule" true
    (List.mem_assoc "ascy1" r.Check.witnesses && List.mem_assoc "ascy2" r.Check.witnesses)

let test_async_baseline_ratio_is_one () =
  let r = report_of "ll-async" in
  Alcotest.(check (float 0.001)) "baseline measures itself at 1.0" 1.0
    r.Check.measured.Check.m_ratio

let suite =
  [
    Alcotest.test_case "race: unsynchronized writers flagged" `Quick test_unsync_writers_flagged;
    Alcotest.test_case "race: unsynchronized counter flagged" `Quick test_unsync_counter_flagged;
    Alcotest.test_case "race: CAS-ordered clean" `Quick test_cas_ordered_clean;
    Alcotest.test_case "race: ttas-protected clean" `Quick test_lock_protected_clean;
    Alcotest.test_case "race: seqlock-ordered clean" `Quick test_seqlock_ordered_clean;
    Alcotest.test_case "race: write vs read exempt" `Quick test_write_read_not_flagged;
    Alcotest.test_case "race+sct: async list rejected" `Quick test_sct_flags_async_list;
    Alcotest.test_case "race+sct: ll-lazy race-free" `Slow (race_free "ll-lazy");
    Alcotest.test_case "race+sct: ht-clht-lb race-free" `Slow (race_free "ht-clht-lb");
    Alcotest.test_case "race+sct: sl-herlihy race-free" `Slow (race_free "sl-herlihy");
    Alcotest.test_case "race+sct: bst-tk race-free" `Slow (race_free "bst-tk");
    Alcotest.test_case "conformance: ll-async fully compliant" `Slow
      (check_vector "ll-async" "1234");
    Alcotest.test_case "conformance: ll-lazy fully compliant" `Slow
      (check_vector "ll-lazy" "1234");
    Alcotest.test_case "conformance: ll-harris fails ASCY1-2 only" `Slow
      (check_vector "ll-harris" "--34");
    Alcotest.test_case "conformance: ll-harris-opt fully compliant" `Slow
      (check_vector "ll-harris-opt" "1234");
    Alcotest.test_case "conformance: harris violations are the declared ones" `Slow
      test_harris_fails_for_the_right_reason;
    Alcotest.test_case "conformance: baseline ratio 1.0" `Slow
      test_async_baseline_ratio_is_one;
  ]
