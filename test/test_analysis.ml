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

   Observers compose: a race detector, a profiler and a trace ring
   attached to one session each hear every committed access, and the
   ring's k-CAS entries carry the classes their commit charged.

   Conformance, golden observed vectors:
   - ll-harris fails ASCY1-2 for the declared reason (restarting,
     cleaning searches; restarting parses) and passes 3-4;
   - ll-harris-opt, ll-lazy and the asynchronized baseline measure
     fully compliant, the baseline at ratio exactly 1. *)

module Sim = Ascy_mem.Sim
module Mem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Race = Ascy_analysis.Race
module Profile = Ascy_analysis.Profile
module Trace = Ascy_analysis.Trace
module Engine = Ascy_harness.Engine
module Check = Ascy_harness.Ascy_check
module Registry = Ascylib.Registry
module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer

(* Run [body] (per-tid thunks) under the simulator with the race
   detector installed; return the distinct-race count. *)
let races_of ~nthreads body =
  Sim.with_sim ~platform:P.xeon20 ~nthreads (fun sim ->
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
(* Observer fan-out                                                    *)
(* ------------------------------------------------------------------ *)

(* [o], counting the accesses it hears into [n]. *)
let counting n (o : Sim.observer) =
  { o with Sim.obs_access = (fun tid kind line cls -> incr n; o.Sim.obs_access tid kind line cls) }

let ring_accesses ring tid =
  List.filter_map
    (fun (e : Trace.entry) ->
      match e.Trace.tr_ev with
      | Trace.T_access (kind, line, cls) -> Some (e.Trace.tr_cycle, kind, line, cls)
      | Trace.T_op_start _ | Trace.T_op_end _ -> None)
    (Trace.entries ring tid)

(* Three threads of ll-pathcas, whose updates commit by k-CAS, under one
   session observed by a race detector, a profiler and a trace ring at
   once. *)
let test_observers_fan_out () =
  let nthreads = 3 in
  let race = Race.create ~nthreads
  and prof = Profile.create ~nthreads
  and ring = Trace.create ~nthreads ~capacity:100_000 in
  let heard = Array.init 3 (fun _ -> ref 0) in
  let observer =
    Sim.compose_observers
      (counting heard.(0) (Race.observer race))
      (Sim.compose_observers
         (counting heard.(1) (Profile.observer prof))
         (counting heard.(2) (Trace.observer ring)))
  in
  let module A = (val (Registry.by_name "ll-pathcas").Registry.maker : Ascy_core.Set_intf.MAKER) in
  let module M = A (Mem) in
  Engine.with_session
    { (Engine.default ~platform:P.xeon20 ~nthreads) with observer = Some observer }
    (fun session ->
      let sim = session.Engine.sim in
      let t = M.create ~hint:32 () in
      for k = 0 to 15 do
        ignore (M.insert t (2 * k) 0)
      done;
      Sim.warm sim;
      let body tid () =
        let rng = Ascy_util.Xorshift.create (tid + 5) in
        for _ = 1 to 40 do
          let k = Ascy_util.Xorshift.below rng 32 in
          let op = Ascy_util.Xorshift.below rng 3 in
          Sim.op_start op;
          let ok =
            match op with
            | 0 -> M.search t k <> None
            | 1 -> M.insert t k tid
            | _ -> M.remove t k
          in
          Profile.set_outcome prof ~tid ~ok;
          Sim.op_end op;
          M.op_done t
        done
      in
      let makespan = Engine.run session (Array.init nthreads body) in
      let st = Sim.stats sim ~makespan in
      Array.iteri
        (fun i n ->
          Alcotest.(check int) (Printf.sprintf "observer %d hears every access" i) st.Sim.accesses !n)
        heard;
      Alcotest.(check int) "ring records every access" st.Sim.accesses
        (List.fold_left (fun acc tid -> acc + List.length (ring_accesses ring tid)) 0 [ 0; 1; 2 ]);
      (* the profiler attributes the accesses inside operation brackets
         (not [op_done]'s reclamation), which the ring shows too *)
      let in_ops tid =
        fst
          (List.fold_left
             (fun (n, inside) (e : Trace.entry) ->
               match e.Trace.tr_ev with
               | Trace.T_op_start _ -> (n, true)
               | Trace.T_op_end _ -> (n, false)
               | Trace.T_access _ -> ((if inside then n + 1 else n), inside))
             (0, false) (Trace.entries ring tid))
      in
      Alcotest.(check int) "profiler attributes every access inside an operation"
        (in_ops 0 + in_ops 1 + in_ops 2)
        (List.fold_left
           (fun acc (p : Profile.op_profile) ->
             let n (c : Profile.counts) = c.Profile.reads + c.writes + c.rmw_ok + c.rmw_fail in
             acc + n p.Profile.p_parse + n p.Profile.p_modify)
           0 (Profile.ops prof));
      Alcotest.(check (option string)) "no race" None (Race.violation race);
      (* every access, k-CAS lines included, carries the class the model
         charged it: the ring's per-class counts are the counters' *)
      Array.iter
        (fun (ts : Sim.thread_stats) ->
          let count c =
            List.length
              (List.filter (fun (_, _, _, cls) -> cls = c) (ring_accesses ring ts.Sim.t_tid))
          in
          Alcotest.(check (list int))
            (Printf.sprintf "t%d l1/llc/c2c_local/c2c_remote/llc_remote/mem" ts.Sim.t_tid)
            [ ts.t_l1; ts.t_llc; ts.t_c2c_local; ts.t_c2c_remote; ts.t_llc_remote; ts.t_mem ]
            (List.map count
               Sim.[ Tc_l1; Tc_llc; Tc_c2c_local; Tc_c2c_remote; Tc_llc_remote; Tc_mem ]))
        (Sim.per_thread_stats sim);
      (* the lines of one k-CAS are reported together, all stamped with
         the clock after the commit: the run did commit some *)
      let rec kcas_pairs = function
        | (c1, Sim.Rmw, _, _) :: ((c2, Sim.Rmw, _, _) :: _ as tl) ->
            (if c1 = c2 then 1 else 0) + kcas_pairs tl
        | _ :: tl -> kcas_pairs tl
        | [] -> 0
      in
      Alcotest.(check bool) "k-CAS commits recorded" true
        (List.exists (fun tid -> kcas_pairs (ring_accesses ring tid) > 0) [ 0; 1; 2 ]))

(* A 2-word k-CAS whose lines are served differently: [a] is dirty in
   thread 0's cache, [b] in the committing thread's own.  The ring lists
   the lines in commit (ascending line) order, each with its own class. *)
let test_kcas_classes_in_commit_order () =
  let ring = Trace.create ~nthreads:2 ~capacity:64 in
  Engine.with_session
    {
      (Engine.default ~platform:P.xeon20 ~nthreads:2) with
      observer = Some (Trace.observer ring);
    }
    (fun session ->
      let a = Mem.make_fresh 0 and b = Mem.make_fresh 0 in
      let body tid () =
        if tid = 0 then Mem.set a 1
        else begin
          Mem.set b 1;
          (* let thread 0's store land first *)
          Mem.work 10_000;
          ignore
            (Mem.kcas
               [ Mem.kcas_op b ~expected:1 ~desired:2; Mem.kcas_op a ~expected:1 ~desired:2 ])
        end
      in
      ignore (Engine.run session (Array.init 2 body));
      Alcotest.(check int) "k-CAS applied" 2 (Mem.get a + Mem.get b - 2);
      Alcotest.(check (list string)) "thread 1's k-CAS lines, in order"
        [ "RMW line=0 c2c_local"; "RMW line=1 l1" ]
        (List.filter_map
           (fun (_, kind, line, cls) ->
             match kind with
             | Sim.Rmw -> Some (Printf.sprintf "RMW line=%d %s" line (Trace.class_name cls))
             | Sim.Read | Sim.Write -> None)
           (ring_accesses ring 1)))

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
    Alcotest.test_case "observers: race, profile and trace hear every access" `Quick
      test_observers_fan_out;
    Alcotest.test_case "observers: k-CAS classes in commit order" `Quick
      test_kcas_classes_in_commit_order;
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
