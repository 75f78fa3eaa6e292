(* Parallel exploration: Ascy_sct.Par_explore runs an exhaustive
   policy on the sequential explorer at every domain count, and
   partitions a randomized policy's schedule budget across OCaml
   domains.  Its contract is that the domain count changes only
   wall-clock: verdicts, schedule-space sizes and counterexamples are
   invariant.  These tests run it at 1 and 4 domains and compare
   everything.

   Also here: the seeded-stream primitives the randomized policies'
   determinism rests on (Xorshift.split / jump). *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Par = Ascy_sct.Par_explore
module Registry = Ascylib.Registry
module Xorshift = Ascy_util.Xorshift

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

(* The exploration driver Par_explore expects: one full oracle-checked
   run of the spec under a given scheduler. *)
let run_of spec =
  let maker = (Registry.by_name spec.Sct.name).Registry.maker in
  fun ~sched -> Sct.run_once maker spec ~sched

(* ------------------------------------------------------------------ *)
(* Exhaustive: one engine at every domain count                        *)
(* ------------------------------------------------------------------ *)

(* Par_explore hands an exhaustive policy to the sequential explorer
   whatever the domain count: the whole report matches, on a clean spec
   and on a failing one. *)
let exhaustive_is_sequential name () =
  let run = run_of (duel name) in
  let seq = Explorer.explore ~bounds:small_bounds ~run () in
  let par = (Par.explore ~bounds:small_bounds ~domains:4 ~run ()).Par.p_report in
  let failure (r : Explorer.report) =
    Option.map (fun f -> (f.Explorer.f_desc, f.Explorer.f_schedule)) r.Explorer.failure
  in
  Alcotest.(check (option (pair string (array int)))) "failure" (failure seq) (failure par);
  Alcotest.(check int) "schedules" seq.Explorer.schedules par.Explorer.schedules;
  Alcotest.(check int) "steps" seq.Explorer.steps par.Explorer.steps;
  Alcotest.(check bool) "complete" seq.Explorer.complete par.Explorer.complete

(* The 3-thread fuzz spec that exposed (and now regression-tests) the
   bst-howley splice-resurrection bug: the repaired protocol must stay
   clean, and the explorer must exhaust its space at default bounds. *)
let fuzz name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2); (Sct.Insert, 3) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2); (Sct.Remove, 3) |];
        [| (Sct.Remove, 1); (Sct.Insert, 2) |];
      |]
    ()

let test_howley_fuzz_clean () =
  let spec = fuzz "bst-howley" in
  let maker = (Registry.by_name spec.Sct.name).Registry.maker in
  let run ~sched =
    Sct.run_once ~model:(Ascy_mem.Sim.model_of_name "flat") maker spec ~sched
  in
  let r = Explorer.explore ~bounds:Explorer.default_bounds ~run () in
  Alcotest.(check bool) "clean" true (r.Explorer.failure = None);
  Alcotest.(check bool) "complete" true r.Explorer.complete

(* On a failing spec every domain count must report the byte-identical
   counterexample the plain sequential explorer finds. *)
let test_canonical_counterexample () =
  let run = run_of (duel "ll-async") in
  let seq = Explorer.explore ~bounds:small_bounds ~run () in
  let f_seq =
    match seq.Explorer.failure with
    | Some f -> f
    | None -> Alcotest.fail "sequential explorer missed the seq-list violation"
  in
  List.iter
    (fun domains ->
      let r = Par.explore ~bounds:small_bounds ~domains ~run () in
      match r.Par.p_report.Explorer.failure with
      | None ->
          Alcotest.fail
            (Printf.sprintf "%d-domain exploration missed the violation" domains)
      | Some f ->
          Alcotest.(check string)
            (Printf.sprintf "violation at %d domains matches sequential" domains)
            f_seq.Explorer.f_desc f.Explorer.f_desc;
          Alcotest.(check (array int))
            (Printf.sprintf "schedule at %d domains matches sequential" domains)
            f_seq.Explorer.f_schedule f.Explorer.f_schedule)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Randomized partition: 1 domain = 4 domains                          *)
(* ------------------------------------------------------------------ *)

(* A clean spec runs the full budget at any domain count: probe + N. *)
let test_random_partition_clean () =
  let run = run_of (duel "ll-lazy") in
  let policy = Explorer.Random { seed = 1; schedules = 64 } in
  let explore domains = Par.explore ~bounds:small_bounds ~policy ~domains ~run () in
  let r1 = explore 1 and r4 = explore 4 in
  Alcotest.(check bool) "clean at both domain counts" true
    (r1.Par.p_report.Explorer.failure = None && r4.Par.p_report.Explorer.failure = None);
  Alcotest.(check int) "identical schedule count (probe + budget)" 65
    r1.Par.p_report.Explorer.schedules;
  Alcotest.(check int) "domain count does not change the budget"
    r1.Par.p_report.Explorer.schedules r4.Par.p_report.Explorer.schedules;
  Alcotest.(check bool) "never complete" false
    (r1.Par.p_report.Explorer.complete || r4.Par.p_report.Explorer.complete)

(* A failing spec reports the lowest failing schedule index whoever
   finds it first — the counterexample is domain-count invariant. *)
let test_random_partition_failure () =
  let run = run_of (duel "ll-async") in
  let policy = Explorer.Random { seed = 1; schedules = 64 } in
  let explore domains =
    match (Par.explore ~policy ~domains ~run ()).Par.p_report.Explorer.failure with
    | Some f -> f
    | None ->
        Alcotest.fail (Printf.sprintf "%d-domain random sampling missed the bug" domains)
  in
  let f1 = explore 1 and f4 = explore 4 in
  Alcotest.(check string) "same violation" f1.Explorer.f_desc f4.Explorer.f_desc;
  Alcotest.(check (array int)) "same failing schedule" f1.Explorer.f_schedule
    f4.Explorer.f_schedule

(* An exception a run raises inside a randomized chunk reaches the
   caller as itself at any domain count, and the pool does not hang
   waiting for the worker it killed.  The probe run before the chunk
   plan passes. *)
exception Boom

let test_random_chunk_exception () =
  List.iter
    (fun domains ->
      let calls = Atomic.make 0 in
      let run ~sched =
        if Atomic.fetch_and_add calls 1 >= 3 then raise Boom;
        run_of (duel "ll-lazy") ~sched
      in
      let policy = Explorer.Random { seed = 1; schedules = 256 } in
      Alcotest.check_raises (Printf.sprintf "Boom at %d domains" domains) Boom (fun () ->
          ignore (Par.explore ~bounds:small_bounds ~policy ~domains ~run ())))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Seeded stream primitives                                            *)
(* ------------------------------------------------------------------ *)

let draws rng n bound = List.init n (fun _ -> Xorshift.below rng bound)

(* split: children are deterministic functions of the parent state and
   pairwise-distinct streams. *)
let test_split_deterministic () =
  let children seed =
    let parent = Xorshift.create seed in
    List.init 4 (fun _ -> draws (Xorshift.split parent) 64 1000)
  in
  Alcotest.(check bool) "same seed, same children" true (children 42 = children 42);
  let cs = children 42 in
  List.iteri
    (fun i c ->
      List.iteri
        (fun j c' ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "children %d and %d differ" i j)
              false (c = c'))
        cs)
    cs

(* split streams look uniform: bucket counts of a long run stay near
   the expected value.  Deterministic (fixed seed), so the tolerance
   just documents the observed spread rather than gambling. *)
let test_split_distribution () =
  let parent = Xorshift.create 7 in
  let child = Xorshift.split parent in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let b = Xorshift.below child 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expect = n / 10 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 15%% of uniform (%d)" i c)
        true
        (abs (c - expect) < expect * 15 / 100))
    buckets

(* jump: deterministic, state-changing, and the jumped stream does not
   replay the original's output. *)
let test_jump () =
  let a = Xorshift.create 11 in
  let b = Xorshift.copy a in
  Xorshift.jump b;
  Alcotest.(check bool) "jumped stream diverges from the original" false
    (draws a 64 1_000_000 = draws b 64 1_000_000);
  let c = Xorshift.create 11 in
  let d = Xorshift.copy c in
  Xorshift.jump c;
  Xorshift.jump d;
  Alcotest.(check bool) "jump is deterministic" true
    (draws c 64 1_000_000 = draws d 64 1_000_000)

let suite =
  [
    Alcotest.test_case "exhaustive at 4 domains: ll-lazy" `Quick
      (exhaustive_is_sequential "ll-lazy");
    Alcotest.test_case "exhaustive at 4 domains: ll-async" `Quick
      (exhaustive_is_sequential "ll-async");
    Alcotest.test_case "canonical counterexample across domain counts" `Quick
      test_canonical_counterexample;
    Alcotest.test_case "bst-howley fuzz clean and complete" `Quick test_howley_fuzz_clean;
    Alcotest.test_case "random partition: clean spec, invariant budget" `Quick
      test_random_partition_clean;
    Alcotest.test_case "random partition: invariant counterexample" `Quick
      test_random_partition_failure;
    Alcotest.test_case "random partition: run exception" `Quick test_random_chunk_exception;
    Alcotest.test_case "xorshift split is deterministic and distinct" `Quick
      test_split_deterministic;
    Alcotest.test_case "xorshift split streams look uniform" `Quick test_split_distribution;
    Alcotest.test_case "xorshift jump advances deterministically" `Quick test_jump;
  ]
