(* Systematic concurrency testing: the SCT engine explored end-to-end.

   These tests exercise the full stack — pluggable scheduler, DPOR
   explorer, oracles, minimizer, schedule serialization — on real CSDS
   implementations:

   - the asynchronized list loses an update within the default bounds,
     the counterexample minimizes and replays bit-for-bit (the
     engine's whole point);
   - one lock-based algorithm per family survives an *exhaustive*
     bounded exploration of the same adversarial workload;
   - DPOR visits strictly fewer schedules than naive enumeration while
     agreeing with it on the verdict;
   - schedules round-trip through their run-length-encoded JSON form. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler
module Replay = Ascy_sct.Replay

(* Two threads race an insert of the same absent key; enough to break
   any structure without concurrency control. *)
let duel name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2) |];
      |]
    ()

(* Small bounds that every family exhausts in well under a second. *)
let small_bounds =
  {
    Explorer.preemptions = Some 1;
    delays = Some 3;
    max_steps = 50_000;
    max_schedules = Some 50_000;
  }

(* ------------------------------------------------------------------ *)
(* Acceptance: find, minimize, replay                                  *)
(* ------------------------------------------------------------------ *)

let test_seq_list_counterexample () =
  let spec = duel "ll-async" in
  let finding, report = Sct.explore ~mode:Explorer.Dpor spec in
  match finding with
  | None -> Alcotest.fail "SCT failed to break the asynchronized list"
  | Some f ->
      Alcotest.(check bool) "found within a few schedules" true (report.Explorer.schedules < 100);
      Alcotest.(check bool)
        "minimized schedule is no longer than the original" true
        (Array.length f.Sct.minimized <= Array.length f.Sct.schedule);
      (* serialize, then replay twice: identical violation both times *)
      let path = Filename.temp_file "sct_counterexample" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sct.save_finding ~path ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation spec;
          let _, _, expected, results = Sct.replay_file path in
          Alcotest.(check (option string))
            "stored violation matches the finding" (Some f.Sct.min_violation) expected;
          Alcotest.(check (list (option string)))
            "both replays reproduce the identical violation"
            [ Some f.Sct.min_violation; Some f.Sct.min_violation ]
            results)

let test_naive_agrees () =
  (* ground truth: naive enumeration also rejects the asynchronized list *)
  let finding, _ = Sct.explore ~mode:Explorer.Naive (duel "ll-async") in
  Alcotest.(check bool) "naive exploration also finds a violation" true (finding <> None)

(* ------------------------------------------------------------------ *)
(* Exhaustive small-bound exploration, one algorithm per family        *)
(* ------------------------------------------------------------------ *)

let exhaustive name () =
  let finding, report = Sct.explore ~mode:Explorer.Dpor ~bounds:small_bounds (duel name) in
  (match finding with
  | Some f -> Alcotest.fail (name ^ " violated: " ^ f.Sct.min_violation)
  | None -> ());
  Alcotest.(check bool) "bounded schedule space exhausted" true report.Explorer.complete

(* The same workload, same (default) bounds that break the
   asynchronized list: the lazy list survives them exhaustively. *)
let test_lazy_survives_default_bounds () =
  let finding, report = Sct.explore ~mode:Explorer.Dpor (duel "ll-lazy") in
  (match finding with
  | Some f -> Alcotest.fail ("ll-lazy violated: " ^ f.Sct.min_violation)
  | None -> ());
  Alcotest.(check bool) "schedule space exhausted at default bounds" true
    report.Explorer.complete

(* ------------------------------------------------------------------ *)
(* DPOR prunes                                                         *)
(* ------------------------------------------------------------------ *)

let test_dpor_prunes () =
  let _, naive = Sct.explore ~mode:Explorer.Naive ~bounds:small_bounds (duel "ll-lazy") in
  let _, dpor = Sct.explore ~mode:Explorer.Dpor ~bounds:small_bounds (duel "ll-lazy") in
  Alcotest.(check bool) "naive exploration exhausts" true naive.Explorer.complete;
  Alcotest.(check bool) "dpor exploration exhausts" true dpor.Explorer.complete;
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) explores strictly fewer schedules than naive (%d)"
       dpor.Explorer.schedules naive.Explorer.schedules)
    true
    (dpor.Explorer.schedules < naive.Explorer.schedules)

(* ------------------------------------------------------------------ *)
(* Serialization round-trips                                           *)
(* ------------------------------------------------------------------ *)

let test_chunks_roundtrip () =
  let scheds =
    [ [||]; [| 0 |]; [| 0; 0; 1; 0 |]; [| 2; 2; 2; 1; 0; 0; 2 |]; Array.make 100 3 ]
  in
  List.iter
    (fun s ->
      Alcotest.(check (array int))
        "of_chunks (to_chunks s) = s" s
        (Scheduler.of_chunks (Scheduler.to_chunks s)))
    scheds

let test_schedule_file_roundtrip () =
  let prefix = [| 0; 0; 1; 1; 1; 0; 2 |] in
  let meta = [ ("algorithm", Ascy_util.Json.String "ll-lazy") ] in
  let path = Filename.temp_file "sct_roundtrip" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Replay.save ~path ~meta ~prefix ();
      let prefix', faults', meta' = Replay.load path in
      Alcotest.(check (array int)) "prefix round-trips" prefix prefix';
      Alcotest.(check bool) "no faults in a v1 file" true (faults' = []);
      Alcotest.(check bool) "meta round-trips" true
        (List.assoc_opt "algorithm" meta' = Some (Ascy_util.Json.String "ll-lazy")))

(* ------------------------------------------------------------------ *)
(* Cross-policy conformance                                            *)
(* ------------------------------------------------------------------ *)

(* The 3-thread adversarial workload the binaries explore — the spec
   behind the ll-lazy "2099 schedules" exhaustive pin. *)
let fuzz = Sct.adversarial_spec

(* Every randomized policy must find the known seq-list violation,
   push it through the same minimize/serialize pipeline, and replay it
   bit-for-bit — replay runs under the prefix scheduler, i.e. the
   exhaustive path's machinery, so this also checks that a randomized
   finding is an ordinary counterexample to the rest of the engine. *)
let policy_conformance policy () =
  let spec = duel "ll-async" in
  let finding, report = Sct.explore ~mode:Explorer.Dpor ~policy spec in
  match finding with
  | None ->
      Alcotest.fail
        (Explorer.policy_name policy ^ " failed to find the seq-list violation")
  | Some f ->
      Alcotest.(check bool)
        "randomized reports are never complete" false report.Explorer.complete;
      Alcotest.(check bool)
        "minimized schedule is no longer than the original" true
        (Array.length f.Sct.minimized <= Array.length f.Sct.schedule);
      let path = Filename.temp_file "sct_policy" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Sct.save_finding ~path ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation spec;
          let _, _, expected, results = Sct.replay_file path in
          Alcotest.(check (option string))
            "stored violation matches the finding" (Some f.Sct.min_violation) expected;
          Alcotest.(check (list (option string)))
            "both replays reproduce the identical violation"
            [ Some f.Sct.min_violation; Some f.Sct.min_violation ]
            results)

(* Same policy, same seed, run twice: byte-identical counterexample —
   the determinism contract randomized policies promise. *)
let test_policy_deterministic () =
  let policy = Explorer.Random { seed = 1; schedules = 64 } in
  let get () =
    match Sct.explore ~policy (duel "ll-async") with
    | Some f, _ -> (f.Sct.violation, f.Sct.schedule, f.Sct.minimized)
    | None, _ -> Alcotest.fail "random policy failed to find the violation"
  in
  let v1, s1, m1 = get () in
  let v2, s2, m2 = get () in
  Alcotest.(check string) "same violation" v1 v2;
  Alcotest.(check (array int)) "same schedule" s1 s2;
  Alcotest.(check (array int)) "same minimized prefix" m1 m2

(* [name] explores the fuzz workload under [policy] without a finding
   and runs [schedules] schedules (the probe plus the full budget);
   sampling never proves exhaustion. *)
let clean_under policy ~schedules name =
  let finding, report =
    Sct.explore ~model:(Ascy_mem.Sim.model_of_name "flat") ~policy (fuzz name)
  in
  (match finding with
  | Some f ->
      Alcotest.fail
        (Printf.sprintf "%s violated under %s: %s" name (Explorer.policy_name policy)
           f.Sct.min_violation)
  | None -> ());
  Alcotest.(check int) (name ^ ": probe + full budget executed") schedules
    report.Explorer.schedules;
  Alcotest.(check bool) (name ^ ": sampling never proves exhaustion") false
    report.Explorer.complete

(* The lazy list stays clean under a random budget as large as the
   exhaustive pin (2099 schedules on this very spec): sampling finds
   no false positives on a correct lock-based algorithm (a chooser that
   starves the lock holder turns its waiters' spin into a bogus
   step-limit verdict). *)
let test_lazy_clean_under_random_budget () =
  clean_under (Explorer.Random { seed = 1; schedules = 2099 }) ~schedules:2100 "ll-lazy"

(* PCT stays clean on algorithms that spin *with side effects*:
   sl-herlihy's insert retries its whole find on meeting a marked
   node and bst-tk's version try-lock fails a CAS per retry.  Strict
   priorities hand every decision to the top-priority retrier, so only
   the chooser's priority-aging backstop (Scheduler.stall_limit) stops
   it from monopolizing the run into a bogus step-limit "livelock".
   Both used to false-positive. *)
let test_pct_effectful_spin_fairness () =
  List.iter
    (clean_under (Explorer.Pct { seed = 1; depth = 3; schedules = 64 }) ~schedules:65)
    [ "sl-herlihy"; "bst-tk" ]

(* The randomized choosers choose from the whole runnable set.  Hiding
   threads that look like they spin (a re-read of an unchanged line)
   starved the thread they waited on: swarm on sl-pugh and PCT on
   bst-drachsler ran to the step limit and reported a bogus livelock
   on these very seeds. *)
let test_randomized_no_bogus_livelock () =
  clean_under (Explorer.Swarm { seeds = [ 1; 2; 3; 4 ]; schedules = 16 }) ~schedules:65 "sl-pugh";
  clean_under
    (Explorer.Pct { seed = 10; depth = 3; schedules = 1024 })
    ~schedules:1025 "bst-drachsler"

(* The fuzz workload used to break bst-howley: a stale splice helper,
   unable to tell that another helper's unlink had already landed,
   released the frozen node back to [Clean] after it was unlinked — an
   insert could then attach a child to the unreachable node and report
   success (set conservation: net 2, membership 1).  The fix gives the
   splice record one shared unlink-outcome cell.  Exhaustive DPOR over
   the repaired protocol proves the whole 3-thread space clean, and
   pinning its size turns any future protocol change into a moved
   number rather than a silent re-shaping of the space. *)
let test_howley_fuzz_space_clean_and_pinned () =
  let finding, report =
    Sct.explore ~mode:Explorer.Dpor
      ~model:(Ascy_mem.Sim.model_of_name "flat")
      (fuzz "bst-howley")
  in
  (match finding with
  | Some f -> Alcotest.fail ("bst-howley violated: " ^ f.Sct.min_violation)
  | None -> ());
  Alcotest.(check bool) "schedule space exhausted" true report.Explorer.complete;
  Alcotest.(check int) "schedule-space size pinned" 3415 report.Explorer.schedules

(* The PathCAS list: every update is a single k-CAS commit, so its
   whole schedule space is small — exhaustive DPOR (with the race
   detector armed) proves the 2-thread duel and the 3-thread fuzz
   spaces clean, and pins their sizes: any change to the k-CAS commit's
   scheduling semantics (one decision point per commit, every touched
   line a write for dependency purposes) re-shapes these spaces. *)
let test_pathcas_spaces_clean_and_pinned () =
  let explore spec =
    let finding, report =
      Sct.explore ~mode:Explorer.Dpor ~races:true
        ~model:(Ascy_mem.Sim.model_of_name "flat")
        spec
    in
    (match finding with
    | Some f -> Alcotest.fail ("ll-pathcas violated: " ^ f.Sct.min_violation)
    | None -> ());
    Alcotest.(check bool) "schedule space exhausted" true report.Explorer.complete;
    report.Explorer.schedules
  in
  Alcotest.(check int) "duel schedule-space size pinned" 6 (explore (duel "ll-pathcas"));
  Alcotest.(check int) "fuzz schedule-space size pinned" 50 (explore (fuzz "ll-pathcas"))

(* PCT's depth guarantee, both directions: at depth 1 there are no
   change points, so every schedule is a serial execution ordered by
   thread priority — a race needing one preemption mid-operation
   cannot manifest, at any seed or budget.  At depth 2 the single
   change point provides exactly that preemption. *)
let test_pct_depth_guarantee () =
  let spec = duel "ll-async" in
  let explore depth =
    fst (Sct.explore ~policy:(Explorer.Pct { seed = 1; depth; schedules = 64 }) spec)
  in
  (match explore 1 with
  | Some f ->
      Alcotest.fail ("depth-1 PCT (serial executions) manifested the bug: " ^ f.Sct.violation)
  | None -> ());
  Alcotest.(check bool) "depth-2 PCT finds the violation" true (explore 2 <> None)

(* ------------------------------------------------------------------ *)
(* Exploration order                                                   *)
(* ------------------------------------------------------------------ *)

(* The schedule counts above pin how many schedules an exploration
   runs; this pins which ones and in what order.  The digest folds in
   every run's full decision sequence as the simulator saw it, in
   order, and the report.  The expected values were recorded before the
   explorer's DFS path became flat arrays, which must not change a
   single decision. *)
let order_digest ~mode ~bounds spec =
  let maker = Sct.maker_of spec in
  let h = ref (Digest.string "") in
  let fold tag ints =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Digest.to_hex !h);
    Buffer.add_string b tag;
    Array.iter (fun t -> Buffer.add_string b (string_of_int t ^ ",")) ints;
    h := Digest.string (Buffer.contents b)
  in
  let run ~sched =
    let trace = Ascy_util.Vec.create ~capacity:256 0 in
    let sched r =
      let t = sched r in
      Ascy_util.Vec.push trace t;
      t
    in
    Fun.protect
      ~finally:(fun () -> fold "run:" (Ascy_util.Vec.to_array trace))
      (fun () -> Sct.run_once maker spec ~sched)
  in
  let r = Explorer.explore ~mode ~bounds ~run () in
  let f_desc, f_schedule =
    match r.Explorer.failure with
    | Some f -> (f.Explorer.f_desc, f.Explorer.f_schedule)
    | None -> ("", [||])
  in
  fold ("report:" ^ f_desc)
    (Array.append
       [| r.Explorer.schedules; r.Explorer.steps; Bool.to_int r.Explorer.complete |]
       f_schedule);
  (r.Explorer.schedules, Digest.to_hex !h)

let test_exploration_order_pinned () =
  let default = Explorer.default_bounds and small = small_bounds in
  List.iter
    (fun (label, spec, mode, bounds, expected) ->
      Alcotest.(check (pair int string)) label expected (order_digest ~mode ~bounds spec))
    [
      ("ll-lazy duel, dpor", duel "ll-lazy", Explorer.Dpor, default,
       (215, "9c79e6d47ddc332738131ffaa29ac92f"));
      ("ll-lazy fuzz, dpor", fuzz "ll-lazy", Explorer.Dpor, small,
       (57, "ce25435d9459a82c20fe6d5cd5e67236"));
      (* three threads, so the order alternatives are tried in shows *)
      ("ll-lazy fuzz, naive", fuzz "ll-lazy", Explorer.Naive, small,
       (688, "9c05d2b5633853bb458d727263ab2bca"));
      ("ht-java duel, dpor", duel "ht-java", Explorer.Dpor, default,
       (142, "17aa4f2a102476476e208dc120515e28"));
      ("ht-java duel, naive", duel "ht-java", Explorer.Naive, default,
       (1680, "db2c15e5120d4c84ebe31cde7dc34c71"));
      (* the seq list fails on its 4th schedule: the failure and its
         schedule are part of the report *)
      ("ll-async duel, failing dpor", duel "ll-async", Explorer.Dpor, default,
       (4, "194ce342f07c98d0f1ab68d2706aeb63"));
    ]

(* ------------------------------------------------------------------ *)
(* The incomplete flag                                                 *)
(* ------------------------------------------------------------------ *)

(* A budget-exhausted exploration is not a proof of absence; the
   explorer always knew (report.complete) but summaries dropped it.
   report_json must carry it both ways. *)
let test_incomplete_flag_propagates () =
  let module J = Ascy_util.Json in
  let field name = function
    | J.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "report_json did not produce an object"
  in
  (* truncated: a 5-schedule budget cannot exhaust ll-lazy's space *)
  let truncated = { small_bounds with Explorer.max_schedules = Some 5 } in
  let finding, report = Sct.explore ~bounds:truncated (duel "ll-lazy") in
  Alcotest.(check bool) "no violation in the truncated prefix" true (finding = None);
  Alcotest.(check bool) "report knows it is incomplete" false report.Explorer.complete;
  let j = Sct.report_json report in
  Alcotest.(check bool) "incomplete surfaces in JSON" true (field "incomplete" j = J.Bool true);
  Alcotest.(check bool) "complete mirrors it" true (field "complete" j = J.Bool false);
  (* exhausted: the same exploration under real bounds *)
  let _, full = Sct.explore ~bounds:small_bounds (duel "ll-lazy") in
  let j = Sct.report_json ~policy:Explorer.Exhaustive ~domains:1 full in
  Alcotest.(check bool) "exhausted space is not incomplete" true
    (field "incomplete" j = J.Bool false);
  Alcotest.(check bool) "policy name serialized" true
    (field "policy" j = J.String "exhaustive")

let test_bad_schedule_file () =
  let path = Filename.temp_file "sct_bad" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"version\": 1, \"kind\": \"something-else\"}";
      close_out oc;
      Alcotest.check_raises "wrong kind rejected"
        (Replay.Bad_schedule "not an ascy-sct-schedule") (fun () ->
          ignore (Replay.load path)))

(* ------------------------------------------------------------------ *)
(* DPOR conflict index vs. the whole-run reference                     *)
(* ------------------------------------------------------------------ *)

module Dpor = Ascy_sct.Dpor
module Sim = Ascy_mem.Sim
module Vec = Ascy_util.Vec

(* The reference the incremental index must agree with: the stutter and
   last-conflict rules stated directly over a whole run of (tid,
   action) steps, each recomputed from scratch. *)
let ref_stutter_flags (steps : (int * Sim.action) array) =
  let n = Array.length steps in
  let flags = Array.make n false in
  (* line -> write version; tid -> (line read, version seen) of the
     thread's latest access, if it was a read *)
  let version = Hashtbl.create 64 in
  let wver l = try Hashtbl.find version l with Not_found -> 0 in
  let last_read = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let tid, a = steps.(i) in
    match a with
    | Sim.A_access (Sim.Read, l) ->
        let v = wver l in
        (match Hashtbl.find_opt last_read tid with
        | Some (l', v') when l' = l && v' = v -> flags.(i) <- true
        | _ -> ());
        Hashtbl.replace last_read tid (l, v)
    | Sim.A_access ((Sim.Write | Sim.Rmw), l) ->
        Hashtbl.replace version l (wver l + 1);
        Hashtbl.remove last_read tid
    | Sim.A_kcas lines ->
        Array.iter (fun l -> Hashtbl.replace version l (wver l + 1)) lines;
        Hashtbl.remove last_read tid
    | Sim.A_start | Sim.A_work _ -> ()
  done;
  flags

(* The latest [j < i] by another thread, not a stutter, dependent on
   step [i]; -1 if none (and for a stutter, which has no conflict). *)
let ref_last_conflict steps flags i =
  let tid_i, a_i = steps.(i) in
  let rec go j =
    if j < 0 then -1
    else begin
      let tid_j, a_j = steps.(j) in
      if tid_j <> tid_i && (not flags.(j)) && Dpor.dependent a_j a_i then j else go (j - 1)
    end
  in
  if flags.(i) then -1 else go (i - 1)

type dfs_op = Push of int * Sim.action | Undo of int

let show_action = function
  | Sim.A_start -> "start"
  | Sim.A_work n -> Printf.sprintf "work %d" n
  | Sim.A_access (k, l) ->
      Printf.sprintf "%s %d" (match k with Sim.Read -> "R" | Sim.Write -> "W" | Sim.Rmw -> "RMW") l
  | Sim.A_kcas ls ->
      "kcas [" ^ String.concat ";" (Array.to_list (Array.map string_of_int ls)) ^ "]"

let show_op = function
  | Push (t, a) -> Printf.sprintf "t%d:%s" t (show_action a)
  | Undo d -> Printf.sprintf "undo %d" d

(* 2-4 threads, 8 lines with two hot ones (so spins and conflicts are
   common), and pushes interleaved with rewinds to earlier depths, as
   the explorer's DFS issues them. *)
let gen_dfs =
  let open QCheck.Gen in
  let line = frequency [ (3, int_bound 1); (1, int_bound 7) ] in
  let kcas =
    list_size (int_range 2 3) (int_bound 7) >|= fun ls ->
    Sim.A_kcas (Array.of_list (List.sort_uniq compare ls))
  in
  let action =
    frequency
      [
        (5, line >|= fun l -> Sim.A_access (Sim.Read, l));
        (2, line >|= fun l -> Sim.A_access (Sim.Write, l));
        (2, line >|= fun l -> Sim.A_access (Sim.Rmw, l));
        (1, kcas);
        (1, int_range 1 4 >|= fun n -> Sim.A_work n);
        (1, return Sim.A_start);
      ]
  in
  int_range 2 4 >>= fun threads ->
  let push = pair (int_bound (threads - 1)) action >|= fun (t, a) -> Push (t, a) in
  let op = frequency [ (8, push); (1, nat >|= fun d -> Undo d) ] in
  list_size (int_range 1 80) op >|= fun ops -> (threads, ops)

let arb_dfs =
  QCheck.make gen_dfs ~print:(fun (threads, ops) ->
      Printf.sprintf "%d threads: %s" threads (String.concat ", " (List.map show_op ops)))

(* Replay [ops] on a fresh index: every pushed step's answer equals the
   whole-run reference's. *)
let index_agrees (threads, ops) =
  let ix = Dpor.create_index ~threads in
  let path = Vec.create (0, Sim.A_start) in
  let marks = Vec.create 0 in
  List.for_all
    (fun op ->
      match op with
      | Undo d ->
          let d = d mod (Vec.length path + 1) in
          if d < Vec.length path then Dpor.undo_to ix (Vec.get marks d);
          Vec.truncate path d;
          Vec.truncate marks d;
          true
      | Push (tid, a) ->
          let i = Vec.length path in
          Vec.push marks (Dpor.mark ix);
          Vec.push path (tid, a);
          let got = Dpor.step ix i tid a in
          let steps = Vec.to_array path in
          let flags = ref_stutter_flags steps in
          got = if flags.(i) then Dpor.stutter else ref_last_conflict steps flags i)
    ops

let prop_index_matches_reference =
  QCheck.Test.make ~count:500 ~name:"dpor index = whole-run stutter/conflict reference"
    arb_dfs index_agrees

(* The generator's paths stay short, so their trail never outgrows its
   first 1,024 cells.  Here two threads write 400 lines in turn (every
   write moves two cells, so the trail grows twice), then undo to a
   depth before the first growth, push again, and undo to 0. *)
let test_index_trail_growth () =
  let writes from =
    List.init 400 (fun i -> Push (i mod 2, Sim.A_access (Sim.Write, from + i)))
  in
  let reads = List.init 50 (fun i -> Push (1 - (i mod 2), Sim.A_access (Sim.Read, i))) in
  let ops = writes 0 @ [ Undo 100 ] @ reads @ writes 200 @ [ Undo 0 ] @ reads in
  Alcotest.(check bool) "index agrees with the reference across trail growth" true
    (index_agrees (2, ops))

let test_index_cases () =
  let ix = Dpor.create_index ~threads:2 in
  let step i tid a = Dpor.step ix i tid a in
  let check msg expected got = Alcotest.(check int) msg expected got in
  check "first read" (-1) (step 0 0 (Sim.A_access (Sim.Read, 5)));
  check "re-read of an unwritten line stutters" Dpor.stutter (step 1 0 (Sim.A_access (Sim.Read, 5)));
  let before_write = Dpor.mark ix in
  check "write skips the stutter, conflicts with the first read" 0
    (step 2 1 (Sim.A_access (Sim.Write, 5)));
  check "re-read after a write is progress" 2 (step 3 0 (Sim.A_access (Sim.Read, 5)));
  check "read of another line" (-1) (step 4 0 (Sim.A_access (Sim.Read, 9)));
  check "k-CAS conflicts with the latest read of a member line" 4
    (step 5 1 (Sim.A_kcas [| 5; 9 |]));
  check "read after the k-CAS conflicts with it" 5 (step 6 0 (Sim.A_access (Sim.Read, 9)));
  Dpor.undo_to ix before_write;
  check "after undo the re-read stutters again" Dpor.stutter
    (step 2 0 (Sim.A_access (Sim.Read, 5)));
  check "after undo the k-CAS sees only step 0" 0 (step 3 1 (Sim.A_kcas [| 5; 9 |]));
  Dpor.undo_to ix 0;
  check "undone to its start the index is empty" (-1) (step 0 1 (Sim.A_access (Sim.Write, 5)))

(* The closed-form default choice and delay cost against
   [candidate_order], the list they stand for: runnable sets of 1-6 tids
   out of 0..7, a previous thread that is absent (-1), runnable or not
   runnable, and a run length on both sides of the time slice. *)
let gen_decision =
  let open QCheck.Gen in
  let slice = Scheduler.time_slice in
  list_size (int_range 1 6) (int_bound 7) >>= fun picks ->
  let tids = List.sort_uniq compare picks in
  let absent = List.filter (fun t -> not (List.mem t tids)) (List.init 8 Fun.id) in
  let prev =
    frequency
      [ (1, return (-1)); (3, oneofl tids); (2, oneofl absent) ]
  in
  let run_len =
    frequency
      [ (2, oneofl [ 0; 1; slice - 1; slice; slice + 1 ]); (1, int_bound (2 * slice)) ]
  in
  triple prev run_len (oneofl absent) >|= fun (prev, run_len, stranger) ->
  (tids, prev, run_len, stranger)

let arb_decision =
  QCheck.make gen_decision ~print:(fun (tids, prev, run_len, stranger) ->
      Printf.sprintf "runnable [%s], prev %d, run_len %d, not runnable %d"
        (String.concat ";" (List.map string_of_int tids))
        prev run_len stranger)

let prop_costs_match_candidate_order =
  QCheck.Test.make ~count:1000 ~name:"default choice and delay cost = candidate order"
    arb_decision (fun (tids, prev, run_len, stranger) ->
      let r =
        { Sim.rn = List.length tids; r_tids = Array.of_list tids; r_acts = Array.make 8 Sim.A_start }
      in
      let order = Scheduler.candidate_order { Scheduler.prev; run_len } r in
      List.sort compare order = tids
      && Scheduler.default_choice { Scheduler.prev; run_len } r = List.hd order
      && Scheduler.preempt_cost ~prev ~run_len r (List.hd order) = 0
      && List.for_all2
           (fun i t -> Scheduler.delay_cost ~prev ~run_len r t = i)
           (List.init (List.length order) Fun.id)
           order
      &&
      match Scheduler.delay_cost ~prev ~run_len r stranger with
      | _ -> false
      | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "seq list: find, minimize, replay bit-for-bit" `Quick
      test_seq_list_counterexample;
    Alcotest.test_case "seq list: naive agrees" `Quick test_naive_agrees;
    Alcotest.test_case "lazy list survives default bounds exhaustively" `Quick
      test_lazy_survives_default_bounds;
    Alcotest.test_case "exhaustive: ll-lazy (list)" `Quick (exhaustive "ll-lazy");
    Alcotest.test_case "exhaustive: ht-lazy (hash table)" `Quick (exhaustive "ht-lazy");
    Alcotest.test_case "exhaustive: sl-herlihy (skip list)" `Quick (exhaustive "sl-herlihy");
    Alcotest.test_case "exhaustive: bst-tk (BST)" `Quick (exhaustive "bst-tk");
    Alcotest.test_case "dpor explores strictly fewer schedules" `Quick test_dpor_prunes;
    Alcotest.test_case "chunk encoding round-trips" `Quick test_chunks_roundtrip;
    Alcotest.test_case "schedule file round-trips" `Quick test_schedule_file_roundtrip;
    Alcotest.test_case "malformed schedule file rejected" `Quick test_bad_schedule_file;
    Alcotest.test_case "random policy: find, minimize, replay bit-for-bit" `Quick
      (policy_conformance (Explorer.Random { seed = 1; schedules = 64 }));
    Alcotest.test_case "pct policy: find, minimize, replay bit-for-bit" `Quick
      (policy_conformance (Explorer.Pct { seed = 1; depth = 2; schedules = 64 }));
    Alcotest.test_case "swarm policy: find, minimize, replay bit-for-bit" `Quick
      (policy_conformance (Explorer.Swarm { seeds = [ 1; 2; 3; 4 ]; schedules = 16 }));
    Alcotest.test_case "random policy is seed-deterministic" `Quick test_policy_deterministic;
    Alcotest.test_case "lazy list clean under a 2099-schedule random budget" `Quick
      test_lazy_clean_under_random_budget;
    Alcotest.test_case "pct stays fair under effect-ful spin loops" `Quick
      test_pct_effectful_spin_fairness;
    Alcotest.test_case "randomized choosers: no bogus livelock on lock-based structures"
      `Quick test_randomized_no_bogus_livelock;
    Alcotest.test_case "pct depth guarantee: missed at d-1, found at d" `Quick
      test_pct_depth_guarantee;
    Alcotest.test_case "bst-howley fuzz space clean and pinned" `Quick
      test_howley_fuzz_space_clean_and_pinned;
    Alcotest.test_case "ll-pathcas duel+fuzz spaces clean and pinned" `Quick
      test_pathcas_spaces_clean_and_pinned;
    Alcotest.test_case "exploration order pinned: decisions, deferrals, reports" `Quick
      test_exploration_order_pinned;
    Alcotest.test_case "incomplete flag propagates into report JSON" `Quick
      test_incomplete_flag_propagates;
    Alcotest.test_case "dpor index: stutter skip, k-CAS vs read, undo" `Quick test_index_cases;
    QCheck_alcotest.to_alcotest prop_index_matches_reference;
    Alcotest.test_case "dpor index: undo across trail growth" `Quick test_index_trail_growth;
    QCheck_alcotest.to_alcotest prop_costs_match_candidate_order;
  ]
