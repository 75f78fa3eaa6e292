(* Mutual-exclusion tests for every lock, executed inside the simulator
   (deterministic adversarial schedules) and natively with domains. *)

module Sim = Ascy_mem.Sim
module SMem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform

(* Run [test sim scheduler] once per seed, each time in a fresh
   simulation under a seeded uniformly random schedule: an adversary
   that may preempt a thread at any access, reproducible per seed. *)
let under_random_schedules ~nthreads test =
  List.iter
    (fun seed ->
      Sim.with_sim ~platform:P.xeon20 ~nthreads (fun sim ->
          test sim (Ascy_sct.Scheduler.uniform_chooser (Ascy_util.Xorshift.create seed))))
    [ 1; 2; 3 ]

(* Generic exclusion check: [n] threads increment a plain (non-atomic)
   cell under the lock; any mutual-exclusion violation loses updates. *)
let sim_exclusion ~acquire ~release ~mk () =
  under_random_schedules ~nthreads:6 (fun sim scheduler ->
      let lock = mk () in
      let cell = SMem.make_fresh 0 in
      let per = 300 in
      let body _ () =
        for _ = 1 to per do
          acquire lock;
          let v = SMem.get cell in
          SMem.work 5;
          SMem.set cell (v + 1);
          release lock
        done
      in
      ignore (Sim.run ~scheduler sim (Array.init 6 body));
      Alcotest.(check int) "no lost updates under lock" (6 * per) (SMem.get cell))

module Ttas_s = Ascy_locks.Ttas.Make (SMem)
module Ticket_s = Ascy_locks.Ticket.Make (SMem)
module Rw_s = Ascy_locks.Rw_lock.Make (SMem)
module Seq_s = Ascy_locks.Seqlock.Make (SMem)
module Tp_s = Ascy_locks.Ticket_pair.Make (SMem)
module Mcs_s = Ascy_locks.Mcs.Make (SMem)

let test_ttas_exclusion =
  sim_exclusion ~acquire:Ttas_s.acquire ~release:Ttas_s.release ~mk:Ttas_s.create_fresh

let test_ticket_exclusion =
  sim_exclusion ~acquire:Ticket_s.acquire ~release:Ticket_s.release ~mk:Ticket_s.create_fresh

let test_rw_write_exclusion =
  sim_exclusion ~acquire:Rw_s.write_acquire ~release:Rw_s.write_release ~mk:Rw_s.create_fresh

let test_ttas_try () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let body () =
        let l = Ttas_s.create_fresh () in
        assert (Ttas_s.try_acquire l);
        assert (not (Ttas_s.try_acquire l));
        Ttas_s.release l;
        assert (Ttas_s.try_acquire l)
      in
      ignore (Sim.run sim [| body |]))

let test_ticket_fifo () =
  (* ticket lock must serve acquisitions in ticket order *)
  Sim.with_sim ~platform:P.xeon20 ~nthreads:4 (fun sim ->
      let l = Ticket_s.create_fresh () in
      let order = SMem.make_fresh [] in
      let body tid () =
        for _ = 1 to 50 do
          Ticket_s.acquire l;
          SMem.set order (tid :: SMem.get order);
          Ticket_s.release l
        done
      in
      ignore (Sim.run sim (Array.init 4 body));
      Alcotest.(check int) "all sections ran" 200 (List.length (SMem.get order)))

let test_ticket_versioning () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let body () =
        let l = Ticket_s.create_fresh () in
        let v = Ticket_s.version l in
        assert (Ticket_s.try_acquire_version l v);
        (* stale version must fail while held and after release *)
        assert (not (Ticket_s.try_acquire_version l v));
        Ticket_s.release l;
        assert (not (Ticket_s.try_acquire_version l v));
        let v' = Ticket_s.version l in
        assert (v' = v + 1);
        assert (Ticket_s.try_acquire_version l v');
        Ticket_s.release l
      in
      ignore (Sim.run sim [| body |]))

let test_rw_readers_parallel_writer_excluded () =
  under_random_schedules ~nthreads:5 (fun sim scheduler ->
      let l = Rw_s.create_fresh () in
      let data = SMem.make_fresh 0 in
      let bad = SMem.make_fresh 0 in
      let body tid () =
        if tid = 0 then
          for _ = 1 to 100 do
            Rw_s.write_acquire l;
            SMem.set data 1;
            SMem.work 10;
            SMem.set data 0;
            Rw_s.write_release l
          done
        else
          for _ = 1 to 100 do
            Rw_s.read_acquire l;
            if SMem.get data <> 0 then SMem.set bad 1;
            Rw_s.read_release l
          done
      in
      ignore (Sim.run ~scheduler sim (Array.init 5 body));
      Alcotest.(check int) "readers never observe writer mid-flight" 0 (SMem.get bad))

let test_seqlock_consistent_reads () =
  under_random_schedules ~nthreads:4 (fun sim scheduler ->
      let l = Seq_s.create_fresh () in
      let a = SMem.make_fresh 0 and b = SMem.make_fresh 0 in
      let bad = SMem.make_fresh 0 in
      let body tid () =
        if tid = 0 then
          for i = 1 to 200 do
            ignore (Seq_s.write_acquire l);
            SMem.set a i;
            SMem.work 8;
            SMem.set b i;
            Seq_s.write_release l
          done
        else
          for _ = 1 to 200 do
            let x, y = Seq_s.read l (fun () -> (SMem.get a, SMem.get b)) in
            if x <> y then SMem.set bad 1
          done
      in
      ignore (Sim.run ~scheduler sim (Array.init 4 body));
      Alcotest.(check int) "seqlock reads are atomic" 0 (SMem.get bad))

(* MCS queue lock: exclusion + FIFO handoff under adversarial schedules. *)
let test_mcs_exclusion () =
  under_random_schedules ~nthreads:6 (fun sim scheduler ->
      let lock = Mcs_s.create_fresh () in
      let cell = SMem.make_fresh 0 in
      let per = 250 in
      let body _ () =
        for _ = 1 to per do
          let h = Mcs_s.acquire lock in
          let v = SMem.get cell in
          SMem.work 5;
          SMem.set cell (v + 1);
          Mcs_s.release lock h
        done
      in
      ignore (Sim.run ~scheduler sim (Array.init 6 body));
      Alcotest.(check int) "no lost updates under MCS" (6 * per) (SMem.get cell))

let test_mcs_uncontended () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let body () =
        let lock = Mcs_s.create_fresh () in
        let h = Mcs_s.acquire lock in
        Mcs_s.release lock h;
        let h2 = Mcs_s.acquire lock in
        Mcs_s.release lock h2
      in
      ignore (Sim.run sim [| body |]);
      Alcotest.(check pass) "uncontended acquire/release cycles" () ())

(* The packed two-edge ticket lock used by BST-TK. *)
let test_ticket_pair_semantics () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let body () =
        let l = Tp_s.create_fresh () in
        let vl, vr = Tp_s.versions l in
        assert (vl = 0 && vr = 0);
        (* sides are independent *)
        assert (Tp_s.try_acquire_version l Tp_s.L vl);
        assert (Tp_s.is_locked l Tp_s.L);
        assert (not (Tp_s.is_locked l Tp_s.R));
        assert (Tp_s.try_acquire_version l Tp_s.R vr);
        (* stale versions fail while held *)
        assert (not (Tp_s.try_acquire_version l Tp_s.L vl));
        Tp_s.release l Tp_s.L;
        Tp_s.release l Tp_s.R;
        (* versions bumped: old versions now stale *)
        assert (not (Tp_s.try_acquire_version l Tp_s.L 0));
        let vl, vr = Tp_s.versions l in
        assert (vl = 1 && vr = 1);
        (* acquire both with one CAS *)
        assert (Tp_s.try_acquire_both l vl vr);
        assert (Tp_s.is_locked l Tp_s.L && Tp_s.is_locked l Tp_s.R);
        (* acquire-both fails when anything is held *)
        assert (not (Tp_s.try_acquire_both l vl vr))
      in
      ignore (Sim.run sim [| body |]))

let test_ticket_pair_exclusion () =
  under_random_schedules ~nthreads:6 (fun sim scheduler ->
      let l = Tp_s.create_fresh () in
      let cell = SMem.make_fresh 0 in
      let per = 200 in
      let body _ () =
        for _ = 1 to per do
          let rec acquire () =
            let vl, vr = Tp_s.versions l in
            if not (Tp_s.try_acquire_both l vl vr) then begin
              SMem.cpu_relax ();
              acquire ()
            end
          in
          acquire ();
          let v = SMem.get cell in
          SMem.work 4;
          SMem.set cell (v + 1);
          Tp_s.release l Tp_s.L;
          Tp_s.release l Tp_s.R
        done
      in
      ignore (Sim.run ~scheduler sim (Array.init 6 body));
      Alcotest.(check int) "no lost updates under pair lock" (6 * per) (SMem.get cell))

(* ---- Systematic exploration: exclusion/handoff on every schedule ---- *)

module Explorer = Ascy_sct.Explorer

let sct_bounds =
  {
    Explorer.preemptions = Some 2;
    delays = Some 4;
    max_steps = 50_000;
    max_schedules = Some 20_000;
  }

(* Mutual exclusion and handoff under SCT: explore *every* bounded
   interleaving of two threads taking the lock twice each.  Exclusion is
   tracked with a plain OCaml counter — the scheduler can only switch
   threads at simulated memory accesses, so a second thread inside the
   section is observed exactly.  Handoff is the run terminating at all:
   a release that failed to wake the waiter would spin past the step
   budget and be reported as a livelock.  The exploration must exhaust
   its bounds — a "pass" that only sampled the space proves nothing. *)
let sct_exclusion ~acquire ~release ~mk () =
  let nthreads = 2 and per = 2 in
  let run ~sched =
    Sim.with_sim ~platform:P.xeon20 ~nthreads (fun sim ->
        let lock = mk () in
        let cell = SMem.make_fresh 0 in
        let inside = ref 0 in
        let overlap = ref false in
        let body _ () =
          for _ = 1 to per do
            let h = acquire lock in
            incr inside;
            if !inside > 1 then overlap := true;
            let v = SMem.get cell in
            SMem.work 3;
            SMem.set cell (v + 1);
            decr inside;
            release lock h
          done
        in
        match Sim.run ~scheduler:sched sim (Array.init nthreads body) with
        | exception Sim.Thread_failure (tid, e, _) ->
            Some (Printf.sprintf "thread %d crashed: %s" tid (Printexc.to_string e))
        | _ ->
            if !overlap then Some "two threads inside the critical section"
            else if SMem.get cell <> nthreads * per then
              Some
                (Printf.sprintf "lost updates under lock: %d of %d" (SMem.get cell)
                   (nthreads * per))
            else None)
  in
  let r = Explorer.explore ~mode:Explorer.Dpor ~bounds:sct_bounds ~run () in
  (match r.Explorer.failure with Some f -> Alcotest.fail f.Explorer.f_desc | None -> ());
  Alcotest.(check bool) "bounded schedule space exhausted" true r.Explorer.complete

let test_sct_ttas =
  sct_exclusion ~acquire:(fun l -> Ttas_s.acquire l) ~release:(fun l () -> Ttas_s.release l)
    ~mk:Ttas_s.create_fresh

let test_sct_ticket =
  sct_exclusion
    ~acquire:(fun l -> Ticket_s.acquire l)
    ~release:(fun l () -> Ticket_s.release l)
    ~mk:Ticket_s.create_fresh

let test_sct_mcs =
  sct_exclusion ~acquire:Mcs_s.acquire ~release:Mcs_s.release ~mk:Mcs_s.create_fresh

let test_sct_rw_writers =
  sct_exclusion
    ~acquire:(fun l -> Rw_s.write_acquire l)
    ~release:(fun l () -> Rw_s.write_release l)
    ~mk:Rw_s.create_fresh

(* Seqlock: a writer keeps a = b; on every bounded interleaving the
   reader's snapshot must be consistent (the retry protocol is what is
   under test, so the reader does not lock). *)
let test_sct_seqlock () =
  let run ~sched =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let l = Seq_s.create_fresh () in
        let a = SMem.make_fresh 0 and b = SMem.make_fresh 0 in
        let torn = ref None in
        let writer () =
          for i = 1 to 2 do
            ignore (Seq_s.write_acquire l);
            SMem.set a i;
            SMem.work 3;
            SMem.set b i;
            Seq_s.write_release l
          done
        in
        let reader () =
          for _ = 1 to 2 do
            let x, y = Seq_s.read l (fun () -> (SMem.get a, SMem.get b)) in
            if x <> y then torn := Some (x, y)
          done
        in
        match Sim.run ~scheduler:sched sim [| writer; reader |] with
        | exception Sim.Thread_failure (tid, e, _) ->
            Some (Printf.sprintf "thread %d crashed: %s" tid (Printexc.to_string e))
        | _ -> (
            match !torn with
            | Some (x, y) -> Some (Printf.sprintf "torn seqlock read: (%d, %d)" x y)
            | None -> None))
  in
  let r = Explorer.explore ~mode:Explorer.Dpor ~bounds:sct_bounds ~run () in
  (match r.Explorer.failure with Some f -> Alcotest.fail f.Explorer.f_desc | None -> ());
  Alcotest.(check bool) "bounded schedule space exhausted" true r.Explorer.complete

(* Native (real domains) exclusion for the two workhorse locks. *)
module Ttas_n = Ascy_locks.Ttas.Make (Ascy_mem.Mem_native)
module Ticket_n = Ascy_locks.Ticket.Make (Ascy_mem.Mem_native)

let native_exclusion what acquire release mk () =
  let lock = mk () in
  let counter = ref 0 in
  let per = 20_000 in
  ignore
    (Conformance.run_domains ~what 4 (fun _ ->
         for _ = 1 to per do
           acquire lock;
           counter := !counter + 1;
           release lock
         done));
  Alcotest.(check int) "native exclusion" (4 * per) !counter

let suite =
  [
    Alcotest.test_case "ttas exclusion (sim)" `Quick test_ttas_exclusion;
    Alcotest.test_case "ticket exclusion (sim)" `Quick test_ticket_exclusion;
    Alcotest.test_case "rwlock write exclusion (sim)" `Quick test_rw_write_exclusion;
    Alcotest.test_case "ttas try_acquire" `Quick test_ttas_try;
    Alcotest.test_case "ticket completes all sections" `Quick test_ticket_fifo;
    Alcotest.test_case "ticket versioned acquire" `Quick test_ticket_versioning;
    Alcotest.test_case "rwlock readers vs writer" `Quick test_rw_readers_parallel_writer_excluded;
    Alcotest.test_case "seqlock consistent reads" `Quick test_seqlock_consistent_reads;
    Alcotest.test_case "mcs exclusion (sim)" `Quick test_mcs_exclusion;
    Alcotest.test_case "mcs uncontended" `Quick test_mcs_uncontended;
    Alcotest.test_case "ticket-pair semantics" `Quick test_ticket_pair_semantics;
    Alcotest.test_case "ticket-pair exclusion (sim)" `Quick test_ticket_pair_exclusion;
    Alcotest.test_case "ttas exclusion (SCT, exhaustive)" `Quick test_sct_ttas;
    Alcotest.test_case "ticket exclusion (SCT, exhaustive)" `Quick test_sct_ticket;
    Alcotest.test_case "mcs exclusion (SCT, exhaustive)" `Quick test_sct_mcs;
    Alcotest.test_case "rwlock writer exclusion (SCT, exhaustive)" `Quick test_sct_rw_writers;
    Alcotest.test_case "seqlock snapshot consistency (SCT, exhaustive)" `Quick test_sct_seqlock;
    Alcotest.test_case "ttas exclusion (domains)" `Slow
      (native_exclusion "ttas exclusion (domains)" Ttas_n.acquire Ttas_n.release Ttas_n.create_fresh);
    Alcotest.test_case "ticket exclusion (domains)" `Slow
      (native_exclusion "ticket exclusion (domains)" Ticket_n.acquire Ticket_n.release
         Ticket_n.create_fresh);
  ]
