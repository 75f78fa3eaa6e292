(* Fault-injection engine and progress-oracle tests.

   Covers: the simulator's crash/stall/NUMA fault events and their
   decision-index coordinate system; lock-holder crashes wedging every
   survivor (with the watchdog naming the lock site they spin on);
   SSMEM's stuck-epoch detection and detach path under a crashed thread;
   the Sct_run crash oracle's injected-kill exemption; Replay schema v2
   round-trips (and v1 output staying fault-free byte-for-byte);
   Fault_run's classify pipeline and its choice of the failing run to
   serialize, through Sct_run's one replay writer, reader and
   reproduce judgment; and replay files written by earlier builds, plus
   malformed ones, through that reader. *)

module Sim = Ascy_mem.Sim
module SMem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Scheduler = Ascy_sct.Scheduler
module Replay = Ascy_sct.Replay
module Fault = Ascy_harness.Fault_run
module Sct_run = Ascy_harness.Sct_run
module Registry = Ascylib.Registry
module Ascy = Ascy_core.Ascy
module J = Ascy_util.Json

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let crash ~at tid = { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_crash }
let stall ~at ~decisions tid = { Sim.fe_at = at; fe_tid = tid; fe_fault = Sim.F_stall decisions }

(* ---------------- engine: faults in the simulator ---------------- *)

(* A crash-stopped thread never runs again; the survivors finish. *)
let test_crash_stops_thread () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
      let prog = Array.make 3 0 in
      let body tid () =
        for i = 1 to 30 do
          SMem.work 3;
          prog.(tid) <- i
        done
      in
      ignore (Sim.run ~faults:[ crash ~at:10 1 ] sim (Array.init 3 body));
      Alcotest.(check bool) "victim crashed" true (Sim.is_crashed sim 1);
      Alcotest.(check (list int)) "crashed tids" [ 1 ] (Sim.crashed_tids sim);
      Alcotest.(check bool) "victim stopped early" true (prog.(1) < 30);
      Alcotest.(check int) "survivor 0 finished" 30 prog.(0);
      Alcotest.(check int) "survivor 2 finished" 30 prog.(2))

(* A stalled thread resumes after its window and still finishes last. *)
let test_stall_delays_thread () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let order = ref [] in
      let body tid () =
        for _ = 1 to 20 do
          SMem.work 2
        done;
        order := tid :: !order
      in
      ignore (Sim.run ~faults:[ stall ~at:3 ~decisions:300 1 ] sim (Array.init 2 body));
      Alcotest.(check (list int)) "stalled thread finishes last" [ 1; 0 ] !order;
      Alcotest.(check (list int)) "nobody crashed" [] (Sim.crashed_tids sim))

(* When every live thread is stalled the decision counter fast-forwards
   to the earliest expiry instead of spinning. *)
let test_all_stalled_fast_forward () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let done_ = Array.make 2 false in
      let body tid () =
        for _ = 1 to 5 do
          SMem.work 2
        done;
        done_.(tid) <- true
      in
      let sched = Scheduler.prefix_scheduler ~prefix:[||] () in
      ignore
        (Sim.run ~scheduler:sched
           ~faults:[ stall ~at:2 ~decisions:500 0; stall ~at:2 ~decisions:500 1 ]
           sim (Array.init 2 body));
      Alcotest.(check bool) "both completed" true (done_.(0) && done_.(1));
      Alcotest.(check bool) "decisions jumped past the stall window" true
        (Sim.decisions sim > 500))

(* A controlled scheduler may only resume a listed thread: choosing one
   inside its stall window is rejected, never a silent un-stall.  The
   scheduler insists on tid 1 until it finishes, so skipping the stall
   would let the whole run complete without an error. *)
let test_scheduler_cannot_resume_stalled () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let done_ = Array.make 2 false in
      let body tid () =
        for _ = 1 to 5 do
          SMem.work 2
        done;
        done_.(tid) <- true
      in
      let sched runnable = if done_.(1) then Sim.runnable_tid runnable 0 else 1 in
      let raised =
        try
          ignore
            (Sim.run ~scheduler:sched
               ~faults:[ stall ~at:0 ~decisions:100 1 ]
               sim (Array.init 2 body));
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "choosing a stalled thread is rejected" true raised)

(* Transient NUMA slowdown: same schedule shape, strictly larger makespan. *)
let test_numa_slow_costs () =
  let run faults =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let cell = SMem.make_fresh 0 in
        let body _ () =
          for _ = 1 to 40 do
            SMem.set cell (SMem.get cell + 1)
          done
        in
        Sim.run ~faults sim (Array.init 2 body))
  in
  let base = run [] in
  let slow =
    run [ { Sim.fe_at = 5; fe_tid = 0; fe_fault = Sim.F_numa_slow { factor = 8.0; window = 500 } } ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "slowed makespan %d > baseline %d" slow base)
    true (slow > base)

let test_fault_unknown_target_rejected () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let body _ () = SMem.work 1 in
      let raised =
        try
          ignore (Sim.run ~faults:[ crash ~at:1 99 ] sim (Array.init 2 body));
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "crash on unknown thread rejected" true raised)

(* ---------------- lock-holder crashes (progress oracles) --------- *)

(* Watchdog trip: the decision it fired at and what each survivor was
   last parked on. *)
exception Wedged of int * (int * string) list

(* Crash the victim inside its critical section and assert that every
   survivor wedges, with the watchdog's report naming what they spin on.
   The crash point is found by a fault-free probe under the identical
   controlled schedule: the first decision at which the victim is
   observed holding the lock. *)
let lock_holder_crash ?(expect_line = true) ~name ~mk ~acquire ~release () =
  let nthreads = 3 and victim = 0 and watchdog = 1_500 in
  let run ~faults ~cand =
    Sim.with_sim ~platform:P.xeon20 ~nthreads (fun sim ->
        let line = SMem.new_line () in
        let lock = mk line in
        let holding = ref false in
        let finished = Array.make nthreads false in
        let decisions = ref 0 in
        let last_progress = ref 0 in
        (* most recent memory access each thread was parked on: a spinning
           survivor's is the lock word (backoff steps would otherwise race
           the snapshot at the trip decision) *)
        let last_access = Array.make nthreads "none" in
        let inner = Scheduler.prefix_scheduler ~prefix:[||] () in
        let sched runnable =
          incr decisions;
          for i = 0 to Sim.runnable_count runnable - 1 do
            match Sim.runnable_action runnable i with
            | Sim.A_access _ as a -> last_access.(Sim.runnable_tid runnable i) <- Sct_run.action_str a
            | _ -> ()
          done;
          (match cand with Some c when !c = 0 && !holding -> c := !decisions | _ -> ());
          if !decisions - !last_progress > watchdog then
            raise
              (Wedged
                 ( !decisions,
                   let spun = ref [] in
                   for i = Sim.runnable_count runnable - 1 downto 0 do
                     let tid = Sim.runnable_tid runnable i in
                     if tid <> victim then spun := (tid, last_access.(tid)) :: !spun
                   done;
                   !spun ));
          inner runnable
        in
        let body tid () =
          if tid = victim then begin
            let h = acquire lock in
            holding := true;
            for _ = 1 to 8 do
              SMem.work 4
            done;
            holding := false;
            release lock h;
            finished.(tid) <- true;
            last_progress := !decisions
          end
          else begin
            (* stagger so the victim reaches the lock first *)
            SMem.work (300 * tid);
            let h = acquire lock in
            SMem.work 4;
            release lock h;
            finished.(tid) <- true;
            last_progress := !decisions
          end
        in
        (line, match Sim.run ~scheduler:sched ~faults sim (Array.init nthreads body) with
               | _ -> Ok finished
               | exception Wedged (at, spun) -> Error (at, spun)))
  in
  let c = ref 0 in
  (match run ~faults:[] ~cand:(Some c) with
  | _, Ok fin ->
      Alcotest.(check bool) (name ^ ": fault-free probe completes") true (Array.for_all Fun.id fin)
  | _, Error _ -> Alcotest.fail (name ^ ": probe wedged without any fault"));
  Alcotest.(check bool) (name ^ ": probe saw the victim holding the lock") true (!c > 0);
  match run ~faults:[ crash ~at:!c victim ] ~cand:None with
  | _, Ok _ -> Alcotest.fail (name ^ ": survivors completed past a crashed lock holder")
  | line, Error (_, spun) ->
      Alcotest.(check (list int))
        (name ^ ": both survivors blocked")
        [ 1; 2 ]
        (List.sort compare (List.map fst spun));
      if expect_line then
        let site = Printf.sprintf "@line%d" line in
        List.iter
          (fun (tid, a) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: t%d spins on the lock site (%s, got %s)" name tid site a)
              true (contains a site))
          spun

module Ttas_s = Ascy_locks.Ttas.Make (SMem)
module Ticket_s = Ascy_locks.Ticket.Make (SMem)
module Mcs_s = Ascy_locks.Mcs.Make (SMem)
module Rw_s = Ascy_locks.Rw_lock.Make (SMem)
module Seq_s = Ascy_locks.Seqlock.Make (SMem)

let test_ttas_holder_crash =
  lock_holder_crash ~name:"ttas" ~mk:Ttas_s.create
    ~acquire:(fun l -> Ttas_s.acquire l)
    ~release:(fun l () -> Ttas_s.release l)

let test_ticket_holder_crash =
  lock_holder_crash ~name:"ticket" ~mk:Ticket_s.create
    ~acquire:(fun l -> Ticket_s.acquire l)
    ~release:(fun l () -> Ticket_s.release l)

(* MCS waiters spin on their own queue node, not the lock word — assert
   the wedge, not the line. *)
let test_mcs_holder_crash =
  lock_holder_crash ~expect_line:false ~name:"mcs" ~mk:Mcs_s.create ~acquire:Mcs_s.acquire
    ~release:Mcs_s.release

let test_rwlock_holder_crash =
  lock_holder_crash ~name:"rwlock" ~mk:Rw_s.create
    ~acquire:(fun l -> Rw_s.write_acquire l)
    ~release:(fun l () -> Rw_s.write_release l)

let test_seqlock_holder_crash =
  lock_holder_crash ~name:"seqlock" ~mk:Seq_s.create
    ~acquire:(fun l -> ignore (Seq_s.write_acquire l))
    ~release:(fun l () -> Seq_s.write_release l)

(* ---------------- SSMEM under a crashed thread ------------------- *)

module Ssmem_s = Ascy_ssmem.Ssmem.Make (SMem)

(* A thread that announced an epoch and then crash-stops pins every
   batch parked after its announcement: garbage accumulates (bounded,
   reported by [stuck_epochs]), nothing is reclaimed unsafely, and after
   an explicit [detach] the parked batches drain. *)
let test_ssmem_crashed_thread_pins_garbage () =
  (* [after] runs inside the simulation context (collect emits events) *)
  let run ~faults ~cand ~after =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let t = Test_ssmem.create_with_threshold 4 () in
        let quiesced = ref false in
        let decisions = ref 0 in
        let inner = Scheduler.prefix_scheduler ~prefix:[||] () in
        let sched runnable =
          incr decisions;
          (match cand with Some c when !c = 0 && !quiesced -> c := !decisions | _ -> ());
          inner runnable
        in
        let body tid () =
          if tid = 0 then begin
            Ssmem_s.quiesce t;
            (* the epoch announcement the crash freezes *)
            quiesced := true;
            for _ = 1 to 10 do
              SMem.work 5
            done;
            Ssmem_s.quiesce t
          end
          else begin
            SMem.work 400;
            (* let t0 announce first *)
            for i = 1 to 32 do
              Ssmem_s.free t i;
              if i mod 8 = 0 then Ssmem_s.quiesce t
            done
          end
        in
        ignore (Sim.run ~scheduler:sched ~faults sim (Array.init 2 body));
        after t)
  in
  (* probe: the decision right after t0's epoch announcement *)
  let c = ref 0 in
  run ~faults:[] ~cand:(Some c) ~after:ignore;
  Alcotest.(check bool) "probe saw the announcement" true (!c > 0);
  run
    ~faults:[ crash ~at:(!c + 2) 0 ]
    ~cand:None
    ~after:(fun t ->
      let s = Ssmem_s.stats t in
      Alcotest.(check int) "all frees deferred" 32 s.Ssmem_s.freed;
      Alcotest.(check int) "nothing reclaimed behind the frozen epoch" 0 s.Ssmem_s.reclaimed;
      (match Ssmem_s.stuck_epochs t with
      | [ st ] ->
          Alcotest.(check int) "the corpse is the pinner" 0 st.Ssmem_s.tid;
          Alcotest.(check int) "every parked batch is pinned" 8 st.Ssmem_s.batches;
          Alcotest.(check int) "every deferred item is pinned" 32 st.Ssmem_s.items
      | l -> Alcotest.fail (Printf.sprintf "expected one stuck epoch, got %d" (List.length l)));
      (* collection without detach must NOT touch the pinned batches *)
      Ssmem_s.collect_all t;
      Alcotest.(check int) "still nothing reclaimed" 0 (Ssmem_s.stats t).Ssmem_s.reclaimed;
      (* detach the corpse: parked batches drain, exactly once *)
      Ssmem_s.detach t 0;
      Ssmem_s.collect_all t;
      let s = Ssmem_s.stats t in
      Alcotest.(check int) "all batches drained after detach" 32 s.Ssmem_s.reclaimed;
      Alcotest.(check int) "no pending garbage" 0 s.Ssmem_s.pending;
      Alcotest.(check int) "no stuck epochs left" 0 (List.length (Ssmem_s.stuck_epochs t)))

(* ---------------- Sct_run: injected-kill exemption --------------- *)

(* A crash fault terminating a thread mid-operation is NOT a violation:
   the oracle must distinguish Thread_killed from a genuine crash. *)
let test_sct_run_injected_kill_not_a_violation () =
  let spec =
    Sct_run.mk_spec ~name:"ll-harris" ~initial:[ 1; 2 ]
      ~script:
        [|
          [| (Sct_run.Search, 1); (Sct_run.Search, 2); (Sct_run.Search, 1) |];
          [| (Sct_run.Insert, 3); (Sct_run.Remove, 3); (Sct_run.Insert, 4) |];
        |]
      ()
  in
  let (module A) = (Registry.by_name "ll-harris").Registry.maker in
  let violation =
    Sct_run.run_once
      ~faults:[ crash ~at:6 0 ]
      (module A)
      spec
      ~sched:(Scheduler.prefix_scheduler ~prefix:[||] ())
  in
  Alcotest.(check (option string)) "injected kill is exempt" None violation

(* ---------------- Replay schema v2 ------------------------------- *)

let test_replay_v2_roundtrip () =
  let path = Filename.temp_file "fault_rt" ".json" in
  let prefix = [| 0; 0; 0; 1; 1 |] in
  let faults =
    [
      crash ~at:7 1;
      stall ~at:9 ~decisions:40 0;
      { Sim.fe_at = 11; fe_tid = 0; fe_fault = Sim.F_numa_slow { factor = 4.0; window = 250 } };
    ]
  in
  Replay.save ~path ~faults ~prefix ~meta:[ ("note", J.String "chaos") ] ();
  let prefix', faults', meta' = Replay.load path in
  Sys.remove path;
  Alcotest.(check (array int)) "prefix survives" prefix prefix';
  Alcotest.(check int) "all faults survive" 3 (List.length faults');
  Alcotest.(check bool) "fault plan identical" true (faults = faults');
  Alcotest.(check bool) "meta survives" true
    (List.assoc_opt "note" meta' = Some (J.String "chaos"))

(* Fault-free output stays schema v1 with no faults key: the pre-fault
   file format is byte-compatible. *)
let test_replay_v1_unchanged_without_faults () =
  let path = Filename.temp_file "fault_v1" ".json" in
  Replay.save ~path ~prefix:[| 0; 0; 1 |] ();
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let _, faults, _ = Replay.load path in
  Sys.remove path;
  Alcotest.(check bool) "no faults key serialized" false (contains raw "fault");
  Alcotest.(check bool) "schema version stays 1" true (contains raw "1");
  Alcotest.(check bool) "loads with an empty plan" true (faults = [])

(* ---------------- Fault_run: classify + replay ------------------- *)

(* A lock-based design must actually wedge for some lock-holder crash,
   and the witness plan must reproduce deterministically from disk. *)
let test_classify_lock_based_wedges_and_replays () =
  let r = Fault.classify (Registry.by_name "ll-lazy") in
  Alcotest.(check bool) "observed blocking" true (r.Fault.observed = Ascy.Blocking);
  Alcotest.(check bool) "matches its declaration" true (Fault.matches r);
  Alcotest.(check bool) "stall survived" true r.Fault.stall_ok;
  match r.Fault.witness with
  | None -> Alcotest.fail "no wedge witness for a lock-based design"
  | Some (faults, violation) ->
      Alcotest.(check bool) "watchdog described the wedge" true (contains violation "watchdog");
      let path = Filename.temp_file "fault_ll_lazy" ".json" in
      Sct_run.save_finding ~faults ~watchdog:Fault.default_watchdog ~check:false ~path
        ~prefix:[||] ~violation (Fault.chaos_spec "ll-lazy");
      let _, faults', expected, results = Sct_run.replay_file path in
      Sys.remove path;
      Alcotest.(check bool) "plan round-trips" true (faults = faults');
      Alcotest.(check (option string)) "expected violation stored" (Some violation) expected;
      List.iteri
        (fun i got ->
          Alcotest.(check (option string))
            (Printf.sprintf "replay %d reproduces" (i + 1))
            (Some violation) got)
        results

(* A lock-free design survives every crash placement with clean oracles. *)
let test_classify_lock_free_survives () =
  let r = Fault.classify (Registry.by_name "ll-harris") in
  Alcotest.(check bool) "observed non-blocking" true (r.Fault.observed = Ascy.Non_blocking);
  Alcotest.(check bool) "matches its declaration" true (Fault.matches r);
  Alcotest.(check bool) "no oracle failures" true (r.Fault.oracle_failures = []);
  Alcotest.(check bool) "several crash placements probed" true (r.Fault.crash_probes > 3)

(* A mismatch serializes its concrete failing run: with ll-lazy's
   declaration flipped to non-blocking, the wedge witness, replayed
   without post-run oracles; a declared-blocking design that never
   wedged has nothing concrete to write, and a match writes nothing. *)
let test_mismatch_finding_replays () =
  let flip r progress = { r with Fault.entry = { r.Fault.entry with Registry.progress } } in
  let lazy_r = Fault.classify (Registry.by_name "ll-lazy") in
  Alcotest.(check bool) "a match has no finding" true (Fault.finding lazy_r = None);
  let harris_r = Fault.classify (Registry.by_name "ll-harris") in
  Alcotest.(check bool)
    "an unwedged blocking declaration has no concrete run" true
    (Fault.finding (flip harris_r Ascy.Blocking) = None);
  match (Fault.finding (flip lazy_r Ascy.Non_blocking), lazy_r.Fault.witness) with
  | None, _ | _, None -> Alcotest.fail "no finding for a wedged non-blocking declaration"
  | Some f, Some (plan, violation) ->
      Alcotest.(check bool) "the witness plan" true (f.Fault.plan = plan);
      Alcotest.(check string) "the witness violation" violation f.Fault.violation;
      Alcotest.(check bool) "replayed without oracles" false f.Fault.oracles;
      Alcotest.(check int) "under the default watchdog" Fault.default_watchdog f.Fault.watchdog;
      let path = Filename.temp_file "mismatch_ll_lazy" ".json" in
      Fault.save_finding ~path "ll-lazy" f;
      let _, plan', expected, results = Sct_run.replay_file path in
      Sys.remove path;
      Alcotest.(check bool) "plan round-trips" true (plan' = plan);
      Alcotest.(check bool) "reproduces" true (Sct_run.reproduces ~expected results)

(* The one judgment of a replay: every replay reports the same
   violation, it is one, and it is the stored one when one is stored. *)
let test_reproduces () =
  let check name want expected results =
    Alcotest.(check bool) name want (Sct_run.reproduces ~expected results)
  in
  check "stored and reproduced" true (Some "v") [ Some "v"; Some "v" ];
  check "reproduced, none stored" true None [ Some "v"; Some "v" ];
  check "no violation" false None [ None; None ];
  check "replays disagree" false None [ Some "v"; Some "w" ];
  check "not the stored one" false (Some "w") [ Some "v"; Some "v" ];
  check "no replays" false (Some "v") []

(* ---------------- replay files across builds + malformed ones ---- *)

(* Replay files written by the build that still had a separate chaos
   replay path (test/replay/): two SCT findings (schema v1; the second
   under the flat model, so it carries the model field) and two FAULT
   findings (schema v2: a lock-holder wedge without post-run oracles,
   and a stall with them).  The EXPLORE_CE files are the counterexamples
   [ascy_explore -model mesi,flat -policy exhaustive] writes for the five
   asynchronized structures; CI compares the sweep's output with them
   byte for byte. *)
let replay_dir = if Sys.file_exists "replay" then "replay" else "test/replay"
let fixture name = Filename.concat replay_dir name

let sct_fixtures =
  [ "sct_ll-async_conservation.json"; "sct_ll-async_race_flat.json" ]
  @ List.map
      (fun a -> Printf.sprintf "EXPLORE_CE_%s_exhaustive.json" a)
      [ "ll-async"; "ht-async"; "sl-async"; "bst-async-int"; "bst-async-ext" ]

let fixtures =
  sct_fixtures @ [ "fault_ll-lazy_wedge.json"; "fault_ll-async_stall_oracles.json" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_fixtures_replay () =
  List.iter
    (fun name ->
      let _, _, expected, results = Sct_run.replay_file (fixture name) in
      match expected with
      | None -> Alcotest.fail (name ^ ": no stored violation")
      | Some v ->
          Alcotest.(check (list (option string))) (name ^ " reproduces") [ Some v; Some v ] results)
    fixtures;
  (* the one writer still produces the original SCT bytes *)
  List.iter
    (fun name ->
      let prefix, _, meta = Replay.load (fixture name) in
      let str k = match List.assoc k meta with J.String s -> s | _ -> assert false in
      let races = List.assoc "races" meta = J.Bool true in
      let path = Filename.temp_file "resave" ".json" in
      Sct_run.save_finding ~races ~model:(Ascy_harness.Engine.model_of_meta meta) ~path ~prefix
        ~violation:(str "violation") (Sct_run.spec_of_meta meta);
      let got = read_file path in
      Sys.remove path;
      Alcotest.(check string) (name ^ " re-saves byte-identically") (read_file (fixture name)) got)
    sct_fixtures

(* Every malformed replay file is a Bad_schedule, never a stray
   exception and never a silently different replay. *)
let test_malformed_replay_files () =
  let prefix, _, meta = Replay.load (fixture "sct_ll-async_conservation.json") in
  let with_meta k v = List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) meta in
  let path = Filename.temp_file "malformed" ".json" in
  let rejects what write =
    write ();
    match Sct_run.replay_file path with
    | _ -> Alcotest.fail (what ^ ": accepted")
    | exception Replay.Bad_schedule _ -> ()
  in
  let save ?faults ?(prefix = prefix) meta () = Replay.save ~path ?faults ~meta ~prefix () in
  rejects "truncated JSON" (fun () ->
      let text = read_file (fixture "sct_ll-async_conservation.json") in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (String.sub text 0 (String.length text / 2))));
  rejects "bad JSON escape" (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "{\"kind\": \"\\uZZZZ\"}"));
  (* prefix lengths are capped before the schedule is allocated *)
  let with_prefix chunks () =
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc
          "{\"version\": 1, \"kind\": \"ascy-sct-schedule\", \"prefix\": %s, \"meta\": %s}" chunks
          (J.to_string (J.Obj meta)))
  in
  rejects "oversized prefix" (with_prefix "[[0, 1000000000000]]");
  rejects "prefix length overflow"
    (with_prefix "[[0, 4611686018427387903], [1, 4611686018427387903]]");
  rejects "unknown platform" (save (with_meta "platform" (J.String "Xeon99")));
  rejects "unknown algorithm" (save (with_meta "algorithm" (J.String "ll-nope")));
  rejects "fault on an unknown thread" (save ~faults:[ crash ~at:3 7 ] meta);
  rejects "fault on an unknown socket"
    (save
       ~faults:
         [ { Sim.fe_at = 3; fe_tid = 9; fe_fault = Sim.F_numa_slow { factor = 2.0; window = 10 } } ]
       meta);
  rejects "prefix names an unknown thread" (save ~prefix:[| 0; 0; 5 |] meta);
  Sys.remove path;
  rejects "missing file" ignore

let suite =
  [
    Alcotest.test_case "crash stops a thread" `Quick test_crash_stops_thread;
    Alcotest.test_case "stall delays a thread" `Quick test_stall_delays_thread;
    Alcotest.test_case "all-stalled fast-forward" `Quick test_all_stalled_fast_forward;
    Alcotest.test_case "scheduler cannot resume a stalled thread" `Quick
      test_scheduler_cannot_resume_stalled;
    Alcotest.test_case "numa slowdown costs cycles" `Quick test_numa_slow_costs;
    Alcotest.test_case "unknown fault target rejected" `Quick test_fault_unknown_target_rejected;
    Alcotest.test_case "ttas holder crash wedges survivors" `Quick test_ttas_holder_crash;
    Alcotest.test_case "ticket holder crash wedges survivors" `Quick test_ticket_holder_crash;
    Alcotest.test_case "mcs holder crash wedges survivors" `Quick test_mcs_holder_crash;
    Alcotest.test_case "rwlock holder crash wedges survivors" `Quick test_rwlock_holder_crash;
    Alcotest.test_case "seqlock holder crash wedges survivors" `Quick test_seqlock_holder_crash;
    Alcotest.test_case "ssmem: crashed thread pins garbage until detach" `Quick
      test_ssmem_crashed_thread_pins_garbage;
    Alcotest.test_case "sct_run: injected kill is not a violation" `Quick
      test_sct_run_injected_kill_not_a_violation;
    Alcotest.test_case "replay v2 roundtrip (prefix + faults + meta)" `Quick
      test_replay_v2_roundtrip;
    Alcotest.test_case "replay v1 output unchanged without faults" `Quick
      test_replay_v1_unchanged_without_faults;
    Alcotest.test_case "classify: lock-based wedges and replays" `Quick
      test_classify_lock_based_wedges_and_replays;
    Alcotest.test_case "classify: lock-free survives every placement" `Quick
      test_classify_lock_free_survives;
    Alcotest.test_case "classify: a mismatch serializes a replayable run" `Quick
      test_mismatch_finding_replays;
    Alcotest.test_case "replay: one reproduce judgment" `Quick test_reproduces;
    Alcotest.test_case "replay files from earlier builds reproduce" `Quick test_fixtures_replay;
    Alcotest.test_case "malformed replay files are bad schedules" `Quick
      test_malformed_replay_files;
  ]
