(* Tests of the discrete-event multicore simulator: coherence accounting,
   determinism, atomicity of simulated RMWs, and topology-sensitive
   costs. *)

module Sim = Ascy_mem.Sim
module Mem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform

(* [increments] CAS increments of the shared counter [c]. *)
let counter_body c ~increments _ () =
  for _ = 1 to increments do
    let rec cas_incr () =
      let v = Mem.get c in
      if not (Mem.cas c v (v + 1)) then cas_incr ()
    in
    cas_incr ()
  done

let run_counter ?(faults = []) ?model ~platform ~nthreads ~increments () =
  Sim.with_sim ?model ~platform ~nthreads (fun sim ->
      let c = Mem.make_fresh 0 in
      let makespan = Sim.run ~faults sim (Array.init nthreads (counter_body c ~increments)) in
      (Mem.get c, makespan, Sim.stats sim ~makespan, sim))

let test_atomic_counter () =
  let v, _, _, _ = run_counter ~platform:P.xeon20 ~nthreads:8 ~increments:500 () in
  Alcotest.(check int) "no lost updates" 4000 v

let test_determinism () =
  let _, m1, _, _ = run_counter ~platform:P.xeon20 ~nthreads:4 ~increments:200 () in
  let _, m2, _, _ = run_counter ~platform:P.xeon20 ~nthreads:4 ~increments:200 () in
  Alcotest.(check int) "same program, same makespan" m1 m2

let test_contention_slows_down () =
  let _, m1, _, _ = run_counter ~platform:P.xeon20 ~nthreads:1 ~increments:1000 () in
  let _, m8, _, _ = run_counter ~platform:P.xeon20 ~nthreads:8 ~increments:1000 () in
  (* contended CAS loop must cost more per op than uncontended *)
  Alcotest.(check bool) "contention increases makespan" true (m8 > m1 * 2)

let test_private_reads_are_cheap () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let r = Mem.make_fresh 0 in
      let body () = for _ = 1 to 1000 do ignore (Mem.get r) done in
      let makespan = Sim.run sim [| body |] in
      let st = Sim.stats sim ~makespan in
      Alcotest.(check bool) "almost all hits" true (st.Sim.hits_l1 >= 999);
      Alcotest.(check bool)
        "cheap per-access cost" true
        (makespan < 1000 * (P.xeon20.P.c_l1 + P.xeon20.P.c_instr + 3)))

let test_sharing_costs_transfers () =
  (* two threads ping-ponging writes on one line must generate transfers *)
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let r = Mem.make_fresh 0 in
      let body _ () = for _ = 1 to 500 do Mem.set r 1 done in
      let makespan = Sim.run sim (Array.init 2 body) in
      let st = Sim.stats sim ~makespan in
      Alcotest.(check bool) "many line transfers" true (st.Sim.transfers_local > 300))

let test_remote_socket_costlier () =
  (* threads 0 and 1 on Xeon20 share a socket (cores 0,1); a line
     ping-ponged between sockets costs more. *)
  let makespan_for pair =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:20 (fun sim ->
        let r = Mem.make_fresh 0 in
        let body tid () =
          if List.mem tid pair then for _ = 1 to 300 do Mem.set r 1 done
        in
        Sim.run sim (Array.init 20 body))
  in
  (* same socket: cores 0 and 1; cross socket: cores 0 and 10 *)
  let local = makespan_for [ 0; 1 ] and remote = makespan_for [ 0; 10 ] in
  Alcotest.(check bool)
    (Printf.sprintf "cross-socket (%d) dearer than in-socket (%d)" remote local)
    true (remote > local)

let test_line_grouping_false_sharing () =
  (* two cells on the SAME line contend even though they are distinct *)
  let makespan shared =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let line = Mem.new_line () in
        let a = if shared then Mem.make line 0 else Mem.make_fresh 0 in
        let b = if shared then Mem.make line 0 else Mem.make_fresh 0 in
        let body tid () =
          let r = if tid = 0 then a else b in
          for _ = 1 to 500 do
            Mem.set r 1
          done
        in
        Sim.run sim (Array.init 2 body))
  in
  Alcotest.(check bool)
    "false sharing is slower" true
    (makespan true > makespan false * 3 / 2)

let test_smt_scaling_t44 () =
  (* on the T4-4, 8 threads land on 8 distinct cores; with 8x SMT they
     would share.  Verify co-located threads run slower per-thread. *)
  let tput nthreads =
    Sim.with_sim ~platform:P.t44 ~nthreads (fun sim ->
        let body _ () =
          let r = Mem.make_fresh 0 in
          for _ = 1 to 500 do
            Mem.set r 1
          done
        in
        let makespan = Sim.run sim (Array.init nthreads body) in
        float_of_int (nthreads * 500) /. float_of_int makespan)
  in
  let t32 = tput 32 (* one thread per core *) in
  let t256 = tput 256 (* eight threads per core *) in
  Alcotest.(check bool) "smt gives sublinear scaling" true (t256 /. t32 < 6.0);
  Alcotest.(check bool) "smt still helps in aggregate" true (t256 > t32)

let test_work_charges_cycles () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let body () = Mem.work 12345 in
      let makespan = Sim.run sim [| body |] in
      Alcotest.(check bool) "work charged" true (makespan >= 12345))

let test_thread_failure_propagates () =
  Alcotest.check_raises "failure surfaces as Thread_failure" (Failure "boom")
    (fun () ->
      try
        Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
            let body tid () = if tid = 1 then failwith "boom" in
            ignore (Sim.run sim (Array.init 2 body)))
      with Sim.Thread_failure (_, e, _) -> raise e)

(* Pinned free-running runs: exact makespan, decision count, access and
   transfer counters and crash list of three smallest-clock-first runs
   (contended; under a mixed fault plan; with every thread
   stalled at once, forcing fast-forwards).  The expected values are a
   behavioural contract of the default scheduling policy: any change to
   how [Sim.run] picks the next thread, applies faults or skips stalls
   shows up here. *)
let pinned_counter ?faults ?model ?(platform = P.xeon20) ~nthreads ~increments () =
  let _, makespan, st, sim = run_counter ?faults ?model ~platform ~nthreads ~increments () in
  ( [ makespan; Sim.decisions sim; st.Sim.accesses; st.Sim.transfers_local; st.Sim.transfers_remote ],
    Sim.crashed_tids sim )

let check_pinned name (got, got_crashed) (want, want_crashed) =
  Alcotest.(check (list int)) (name ^ ": makespan/decisions/accesses/transfers") want got;
  Alcotest.(check (list int)) (name ^ ": crashed tids") want_crashed got_crashed

let test_free_running_pinned () =
  let fault at tid f = { Sim.fe_at = at; fe_tid = tid; fe_fault = f } in
  check_pinned "contended"
    (pinned_counter ~nthreads:20 ~increments:40 ())
    ([ 58108; 8862; 8842; 2476; 1942 ], []);
  check_pinned "crash + stall + numa-slow"
    (pinned_counter ~nthreads:20 ~increments:40
       ~faults:
         [
           fault 50 1 (Sim.F_numa_slow { factor = 4.0; window = 600 });
           fault 300 12 (Sim.F_stall 2000);
           fault 700 7 Sim.F_crash;
         ]
       ())
    ([ 54710; 7766; 7746; 2047; 1780 ], [ 7 ]);
  check_pinned "every thread stalled at once"
    (pinned_counter ~nthreads:4 ~increments:30
       ~faults:(List.init 4 (fun tid -> fault 20 tid (Sim.F_stall (500 + (200 * tid))))) ())
    ([ 1396; 1179; 254; 10; 0 ], [])

(* The same contract at the paper's widest thread counts, where the
   free-running chooser has the most threads to order. *)
let test_free_running_pinned_wide () =
  check_pinned "40 threads, Xeon40"
    (pinned_counter ~platform:P.xeon40 ~nthreads:40 ~increments:30 ())
    ([ 96500; 18566; 18526; 1893; 7365 ], []);
  check_pinned "48 threads, Opteron, moesi"
    (pinned_counter ~model:(Sim.model_of_name "moesi") ~platform:P.opteron ~nthreads:48
       ~increments:25 ())
    ([ 376753; 32560; 32512; 404; 31854 ], []);
  check_pinned "64 threads, T4-4"
    (pinned_counter ~platform:P.t44 ~nthreads:64 ~increments:20 ())
    ([ 53592; 28032; 27968; 1920; 12024 ], [])

(* The tid a fault-free 20-thread counter run commits at decision [d]:
   the runnable thread with the smallest clock there. *)
let chosen_at d =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:20 (fun sim ->
      let c = Mem.make_fresh 0 in
      let got = ref (-1) in
      let ignore2 _ _ = () in
      Sim.set_observer sim
        (Some
           {
             Sim.obs_access = (fun tid _ _ _ -> if Sim.decisions sim = d + 1 then got := tid);
             obs_rmw = ignore2;
             obs_event = ignore2;
             obs_op_start = ignore2;
             obs_op_end = ignore2;
           });
      ignore (Sim.run sim (Array.init 20 (counter_body c ~increments:40)));
      !got)

(* Fault plans on 20 threads that take threads out of the free-running
   order and put them back: overlapping stalls, a crash of the thread
   the clock would pick next, and NUMA slow-down windows. *)
let test_free_running_faults_pinned () =
  let fault at tid f = { Sim.fe_at = at; fe_tid = tid; fe_fault = f } in
  check_pinned "a stall expires while another thread is stalled"
    (pinned_counter ~nthreads:20 ~increments:40
       ~faults:[ fault 100 3 (Sim.F_stall 400); fault 150 9 (Sim.F_stall 1200) ]
       ())
    ([ 52058; 7612; 7592; 2054; 1660 ], []);
  let victim = chosen_at 700 in
  Alcotest.(check int) "smallest-clock thread at decision 700" 11 victim;
  check_pinned "crash of the smallest-clock thread"
    (pinned_counter ~nthreads:20 ~increments:40 ~faults:[ fault 700 victim Sim.F_crash ] ())
    ([ 54390; 8364; 8344; 2326; 1843 ], [ 11 ]);
  check_pinned "numa-slow windows"
    (pinned_counter ~nthreads:20 ~increments:40
       ~faults:
         [
           fault 80 1 (Sim.F_numa_slow { factor = 2.5; window = 900 });
           fault 400 0 (Sim.F_numa_slow { factor = 1.5; window = 300 });
         ]
       ())
    ([ 58418; 9066; 9046; 2430; 2085 ], [])

(* Decisions are taken at the yield points: a re-pick of the running
   thread runs on without an effect, another choice suspends it, and a
   due fault suspends it undecided so the loop applies the fault first.
   The tests below pin what that must not change: one chooser call per
   decision, the same choices and costs as a loop that decides every
   step, exceptions of the chooser leaving [Sim.run] as themselves, the
   thread's own failures as [Thread_failure] with its tid, and crashes
   landing at their decision even in a re-pick streak. *)

(* Three threads, each four rounds of reads, a write, [work] and a
   2-word k-CAS over two shared cells. *)
let mixed_bodies () =
  let a = Mem.make_fresh 0 and b = Mem.make_fresh 0 in
  let body tid () =
    for i = 1 to 4 do
      let v = Mem.get a in
      Mem.set b (v + tid);
      Mem.work (3 + tid);
      let va = Mem.get a and vb = Mem.get b in
      ignore
        (Mem.kcas
           [ Mem.kcas_op a ~expected:va ~desired:(va + i); Mem.kcas_op b ~expected:vb ~desired:vb ])
    done
  in
  Array.init 3 body

(* Runs of three positions at a time, rotating: re-picks and switches. *)
let rotating_chooser calls log r =
  incr calls;
  let tid = Sim.runnable_tid r (!calls / 3 mod Sim.runnable_count r) in
  log :=
    ( List.init (Sim.runnable_count r) (fun i ->
          (Sim.runnable_tid r i, Sim.runnable_action r i)),
      tid )
    :: !log;
  tid

let test_controlled_one_call_per_decision () =
  let run faults =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
        let calls = ref 0 and log = ref [] in
        let bodies = mixed_bodies () in
        let makespan = Sim.run ~scheduler:(rotating_chooser calls log) ~faults sim bodies in
        (!calls, Sim.decisions sim, makespan, (Sim.stats sim ~makespan).Sim.accesses, List.rev !log))
  in
  let calls, decisions, makespan, accesses, log = run [] in
  Alcotest.(check int) "one chooser call per decision" decisions calls;
  (* a start plus 6 yield points (3 reads, write, work, k-CAS) x 4 rounds *)
  Alcotest.(check int) "decisions" (3 * (1 + (6 * 4))) decisions;
  (* a no-op fault due at every decision makes every yield point
     suspend and the loop decide *)
  let every =
    List.init decisions (fun at -> { Sim.fe_at = at; fe_tid = 0; fe_fault = Sim.F_stall 0 })
  in
  let calls', decisions', makespan', accesses', log' = run every in
  Alcotest.(check (list int)) "same counts as deciding in the loop"
    [ calls'; decisions'; makespan'; accesses' ]
    [ calls; decisions; makespan; accesses ];
  Alcotest.(check bool) "same runnable sets, lookaheads and choices" true (log = log')

exception Chooser_gave_up of int

let test_chooser_exception_unwrapped () =
  List.iter
    (fun k ->
      Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
          let cell = Mem.make_fresh 0 in
          let swallowed = ref false in
          (* a body that catches everything must not see the chooser's
             exception *)
          let body _ () =
            try
              for _ = 1 to 20 do
                Mem.set cell (Mem.get cell + 1)
              done
            with _ -> swallowed := true
          in
          let calls = ref 0 in
          let sched r =
            incr calls;
            if !calls = k then raise (Chooser_gave_up k);
            Sim.runnable_tid r 0
          in
          let got =
            match Sim.run ~scheduler:sched sim (Array.init 3 body) with
            | _ -> "returned"
            | exception Chooser_gave_up j -> Printf.sprintf "Chooser_gave_up %d" j
            | exception Sim.Thread_failure (tid, e, _) ->
                Printf.sprintf "Thread_failure (%d, %s)" tid (Printexc.to_string e)
          in
          Alcotest.(check string) (Printf.sprintf "raised at decision %d" k)
            (Printf.sprintf "Chooser_gave_up %d" k) got;
          Alcotest.(check bool) "no body saw it" false !swallowed))
    [ 1; 2; 7; 30 ]

let test_finished_choice_rejected () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let cell = Mem.make_fresh 0 in
      let body tid () =
        for _ = 1 to (if tid = 0 then 1 else 10) do
          ignore (Mem.get cell)
        done
      in
      (* lowest runnable tid for four decisions — thread 0 starts, reads
         and finishes, thread 1 starts and reads — then thread 0 again,
         at thread 1's next yield point *)
      let calls = ref 0 in
      let sched r =
        incr calls;
        if !calls <= 4 then Sim.runnable_tid r 0 else 0
      in
      let got =
        match Sim.run ~scheduler:sched sim (Array.init 2 body) with
        | _ -> "returned"
        | exception Invalid_argument msg -> msg
        | exception Sim.Thread_failure (tid, e, _) ->
            Printf.sprintf "Thread_failure (%d, %s)" tid (Printexc.to_string e)
      in
      Alcotest.(check string) "finished tid rejected"
        "Sim.run: scheduler chose non-runnable thread 0" got;
      Alcotest.(check int) "at the fifth decision" 5 !calls)

let test_failure_after_repicks_attributed () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
      let cell = Mem.make_fresh 0 in
      let body tid () =
        for _ = 1 to 200 do
          Mem.set cell (Mem.get cell + tid)
        done;
        if tid = 2 then failwith "thread 2 gives up"
      in
      (* the highest runnable tid: thread 2 runs its 400 steps re-picked *)
      let sched r = Sim.runnable_tid r (Sim.runnable_count r - 1) in
      let got =
        match Sim.run ~scheduler:sched sim (Array.init 3 body) with
        | _ -> "returned"
        | exception Sim.Thread_failure (tid, e, _) ->
            Printf.sprintf "Thread_failure (%d, %s)" tid (Printexc.to_string e)
      in
      Alcotest.(check string) "attributed to thread 2"
        "Thread_failure (2, Failure(\"thread 2 gives up\"))" got;
      Alcotest.(check int) "after its start and 400 re-picks" 401 (Sim.decisions sim))

(* Streaks of ten decisions per runnable position: thread 0 runs
   decisions 1-9 and 30-39, re-picked at each yield point.  Raises at
   call [give_up]. *)
let streak_chooser ?(give_up = 0) calls choices r =
  incr calls;
  if !calls = give_up then raise (Chooser_gave_up give_up);
  let tid = Sim.runnable_tid r (!calls / 10 mod Sim.runnable_count r) in
  Buffer.add_char choices (Char.chr (Char.code '0' + tid));
  tid

(* Chooser calls, decisions, makespan, choices and crashed tids of
   [bodies] under [streak_chooser] and [faults]. *)
let streak_run ?give_up ~faults bodies =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
      let calls = ref 0 and choices = Buffer.create 64 in
      let makespan =
        Sim.run ~scheduler:(streak_chooser ?give_up calls choices) ~faults sim (bodies ())
      in
      ( [ !calls; Sim.decisions sim; makespan ],
        Buffer.contents choices,
        Sim.crashed_tids sim ))

let check_streak name (counts, choices, crashed) (counts', choices', crashed') =
  Alcotest.(check (list int)) (name ^ ": calls/decisions/makespan") counts' counts;
  Alcotest.(check string) (name ^ ": choices") choices' choices;
  Alcotest.(check (list int)) (name ^ ": crashed tids") crashed' crashed

let test_crash_in_repick_streak () =
  let crash at tid = { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_crash } in
  check_streak "thread 0 crashed at decision 35"
    (streak_run ~faults:[ crash 35 0 ] mixed_bodies)
    ([ 65; 65; 956 ], "00000000011111111112222222222000000222211111111112222222222111112", [ 0 ])

let test_killed_cleanup_parks () =
  let fault at tid f = { Sim.fe_at = at; fe_tid = tid; fe_fault = f } in
  let cleaned = ref [] in
  (* each body catches the kill and touches shared memory before it
     records its clean-up: a crashed thread parks at its first yield
     point, so none gets that far and no decision is taken there *)
  let bodies () =
    let cell = Mem.make_fresh 0 in
    Array.mapi
      (fun tid body () ->
        try body () with
        | Sim.Thread_killed ->
            Mem.set cell (-1);
            cleaned := tid :: !cleaned)
      (mixed_bodies ())
  in
  check_streak "thread 1 crashed while thread 0 runs"
    (streak_run ~faults:[ fault 33 1 Sim.F_crash ] bodies)
    ([ 60; 60; 1326 ], "000000000111111111122222222220000222222000000000022222222200", [ 1 ]);
  (* the decision after the kill is the loop's, so the chooser's
     exception there leaves [Sim.run] *)
  Alcotest.check_raises "chooser exception after the kill" (Chooser_gave_up 34) (fun () ->
      ignore (streak_run ~give_up:34 ~faults:[ fault 33 1 Sim.F_crash ] bodies));
  (* a second fault due at the same decision *)
  check_streak "threads 2 and 1 crashed, thread 0 stalled"
    (streak_run
       ~faults:[ fault 33 2 Sim.F_crash; fault 33 1 Sim.F_crash; fault 33 0 (Sim.F_stall 4) ]
       bodies)
    ([ 45; 49; 1018 ], "000000000111111111122222222220000000000000000", [ 2; 1 ]);
  Alcotest.(check (list int)) "no clean-up ran past its first access" [] !cleaned

let suite =
  [
    Alcotest.test_case "simulated CAS counter is atomic" `Quick test_atomic_counter;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism;
    Alcotest.test_case "contention slows the counter" `Quick test_contention_slows_down;
    Alcotest.test_case "private reads hit L1" `Quick test_private_reads_are_cheap;
    Alcotest.test_case "write sharing generates transfers" `Quick test_sharing_costs_transfers;
    Alcotest.test_case "cross-socket transfers cost more" `Quick test_remote_socket_costlier;
    Alcotest.test_case "false sharing on one line" `Quick test_line_grouping_false_sharing;
    Alcotest.test_case "SMT issue sharing on T4-4" `Quick test_smt_scaling_t44;
    Alcotest.test_case "work() advances the clock" `Quick test_work_charges_cycles;
    Alcotest.test_case "thread exceptions propagate" `Quick test_thread_failure_propagates;
    Alcotest.test_case "free-running runs are pinned" `Quick test_free_running_pinned;
    Alcotest.test_case "free-running runs are pinned, 40-64 threads" `Quick
      test_free_running_pinned_wide;
    Alcotest.test_case "free-running fault plans are pinned" `Quick test_free_running_faults_pinned;
    Alcotest.test_case "controlled: one chooser call per decision" `Quick
      test_controlled_one_call_per_decision;
    Alcotest.test_case "controlled: chooser exceptions leave unwrapped" `Quick
      test_chooser_exception_unwrapped;
    Alcotest.test_case "controlled: a finished tid is rejected" `Quick
      test_finished_choice_rejected;
    Alcotest.test_case "controlled: failure after re-picks keeps its tid" `Quick
      test_failure_after_repicks_attributed;
    Alcotest.test_case "controlled: crash lands inside a re-pick streak" `Quick
      test_crash_in_repick_streak;
    Alcotest.test_case "controlled: a killed thread's clean-up parks" `Quick
      test_killed_cleanup_parks;
  ]
