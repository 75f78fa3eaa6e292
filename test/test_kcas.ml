(* The multi-word-CAS layer (Memory.S.kcas) on both backends.

   Native (Harris RDCSS/k-CAS with helping): semantics, duplicate
   rejection, the helping path driven directly through the backend's
   acquire hook (a committer "crash-stopped" mid-commit is finished by
   the next ordinary write), values shaped like the cell encoding (a
   cell keeps plain values raw and tells descriptors apart by a private
   mark), a sequential-model property over cells of mixed types, and
   cross-domain stresses whose exact final values only hold if commits
   are all-or-nothing and plain operations help them.

   Simulator (atomic multi-line commit): the same semantics, the
   per-line RMW accounting the ASCY4 k-word policy builds on, probe
   k-CASes that can never witness a half-applied commit, and
   disjoint-vs-overlapping thread interaction. *)

module N = Ascy_mem.Mem_native
module Sim = Ascy_mem.Sim
module SM = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform

(* ------------------------------------------------------------------ *)
(* Native backend                                                      *)
(* ------------------------------------------------------------------ *)

let ncell v = N.make (N.new_line ()) v

let test_native_semantics () =
  let a = ncell 1 and b = ncell 2 and c = ncell 3 in
  Alcotest.(check bool) "empty k-CAS is true" true (N.kcas []);
  Alcotest.(check bool) "1-op k-CAS is a CAS" true
    (N.kcas [ N.kcas_op a ~expected:1 ~desired:10 ]);
  Alcotest.(check int) "1-op applied" 10 (N.get a);
  Alcotest.(check bool) "1-op k-CAS fails like a CAS" false
    (N.kcas [ N.kcas_op a ~expected:1 ~desired:99 ]);
  Alcotest.(check bool) "3-op success" true
    (N.kcas
       [
         N.kcas_op a ~expected:10 ~desired:11;
         N.kcas_op b ~expected:2 ~desired:22;
         N.kcas_op c ~expected:3 ~desired:33;
       ]);
  Alcotest.(check (list int)) "all three applied" [ 11; 22; 33 ]
    [ N.get a; N.get b; N.get c ];
  Alcotest.(check bool) "one stale expected fails the whole commit" false
    (N.kcas
       [
         N.kcas_op a ~expected:11 ~desired:12;
         N.kcas_op b ~expected:2 ~desired:0 (* stale *);
         N.kcas_op c ~expected:33 ~desired:34;
       ]);
  Alcotest.(check (list int)) "nothing applied on failure" [ 11; 22; 33 ]
    [ N.get a; N.get b; N.get c ]

let test_native_duplicate_rejected () =
  let a = ncell 1 and b = ncell 2 in
  Alcotest.check_raises "same cell twice rejected"
    (Invalid_argument "Memory.kcas: duplicate cell") (fun () ->
      ignore
        (N.kcas
           [
             N.kcas_op a ~expected:1 ~desired:2;
             N.kcas_op b ~expected:2 ~desired:3;
             N.kcas_op a ~expected:2 ~desired:3;
           ]))

(* A committer stalls (modeled as an exception out of the backend's
   acquire hook) after phase-1-acquiring the first cell of
   [a: 0 -> 1; b: 10 -> 11]: its descriptor is left published in [a].
   Cells are created in order, so [a] has the lower id and is the one
   acquired. *)
let stalled_commit () =
  let a = ncell 0 and b = ncell 10 in
  N.kdx_acquire_hook := (fun n -> if n = 1 then raise Exit);
  Fun.protect
    ~finally:(fun () -> N.kdx_acquire_hook := (fun _ -> ()))
    (fun () ->
      try
        ignore
          (N.kcas [ N.kcas_op a ~expected:0 ~desired:1; N.kcas_op b ~expected:10 ~desired:11 ]);
        Alcotest.fail "acquire hook did not fire"
      with Exit -> ());
  (a, b)

let check_committed what (a, b) ~a_now =
  Alcotest.(check int) (what ^ ": helper finished the stalled commit (b)") 11 (N.get b);
  Alcotest.(check int) (what ^ ": own write landed after the commit (a)") a_now (N.get a)

(* Reads peek through the undecided descriptor (reads never write); each
   plain write — set, cas, fetch_and_add — and a k-CAS first help the
   stalled commit to its decision and release, then do their own work
   against the committed value. *)
let test_native_helping () =
  let ((a, b) as cells) = stalled_commit () in
  Alcotest.(check int) "get peeks through the undecided descriptor" 0 (N.get a);
  Alcotest.(check int) "unacquired cell untouched" 10 (N.get b);
  Alcotest.(check int) "a second get still sees the pre-commit value" 0 (N.get a);
  Alcotest.(check bool) "cas: its own CAS loses to the commit" false (N.cas a 0 5);
  check_committed "cas" cells ~a_now:1;
  let ((a, _) as cells) = stalled_commit () in
  Alcotest.(check bool) "cas against the committed value wins" true (N.cas a 1 5);
  check_committed "cas (committed expected)" cells ~a_now:5;
  let ((a, _) as cells) = stalled_commit () in
  N.set a 7;
  check_committed "set" cells ~a_now:7;
  let ((a, _) as cells) = stalled_commit () in
  Alcotest.(check int) "fetch_and_add returns the committed value" 1 (N.fetch_and_add a 3);
  check_committed "fetch_and_add" cells ~a_now:4;
  let a, b = stalled_commit () in
  Alcotest.(check bool) "a k-CAS over the occupied cell helps, then commits" true
    (N.kcas [ N.kcas_op a ~expected:1 ~desired:2; N.kcas_op b ~expected:11 ~desired:12 ]);
  Alcotest.(check (pair int int)) "k-CAS: both commits applied in order" (2, 12)
    (N.get a, N.get b);
  (* the stalled commit can also fail: its unacquired cell moved on, so
     the helper decides failure and restores the expected value *)
  let a, b = stalled_commit () in
  N.set b 99;
  Alcotest.(check int) "fetch_and_add sees the rolled-back value" 0 (N.fetch_and_add a 5);
  Alcotest.(check (pair int int)) "failed commit wrote nothing" (5, 99) (N.get a, N.get b);
  let a, b = stalled_commit () in
  N.set b 99;
  Alcotest.(check int) "get reads the expected value of a doomed commit" 0 (N.get a);
  Alcotest.(check bool) "cas after a failed commit sees the old value" true (N.cas a 0 3);
  Alcotest.(check (pair int int)) "cas: failed commit wrote nothing" (3, 99) (N.get a, N.get b)

(* Values shaped like the encoding: a cell keeps plain values raw in its
   first field and tells a descriptor by a private mark in the
   descriptor's first field.  [v0], [v1], [v2] are pairwise physically
   distinct unless they are the only value of their type; [v1'] is
   structurally equal to [v1] but another block, where one exists. *)
let roundtrip (type a) name ?(v1' : a option) (v0 : a) (v1 : a) (v2 : a) =
  let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
  let c = ncell v0 in
  check "make/get" (N.get c == v0);
  N.set c v1;
  check "set/get" (N.get c == v1);
  if v0 != v1 then begin
    check "cas with a stale expected fails" (not (N.cas c v0 v2));
    check "failed cas wrote nothing" (N.get c == v1)
  end;
  Option.iter
    (fun v1' ->
      check "cas compares physically" (not (N.cas c v1' v2));
      check "physically unequal cas wrote nothing" (N.get c == v1))
    v1';
  check "cas" (N.cas c v1 v2);
  check "cas/get" (N.get c == v2);
  let other = ncell 0 in
  check "k-CAS commits"
    (N.kcas [ N.kcas_op c ~expected:v2 ~desired:v0; N.kcas_op other ~expected:0 ~desired:1 ]);
  check "k-CAS installed the desired value" (N.get c == v0 && N.get other = 1);
  check "k-CAS failing on the other cell"
    (not (N.kcas [ N.kcas_op c ~expected:v0 ~desired:v1; N.kcas_op other ~expected:0 ~desired:2 ]));
  check "failed k-CAS left both unchanged" (N.get c == v0 && N.get other = 1);
  if v0 != v1 then begin
    check "k-CAS failing on this cell"
      (not (N.kcas [ N.kcas_op c ~expected:v1 ~desired:v2; N.kcas_op other ~expected:1 ~desired:2 ]));
    check "failed k-CAS left both unchanged (2)" (N.get c == v0 && N.get other = 1)
  end;
  check "1-op k-CAS" (N.kcas [ N.kcas_op c ~expected:v0 ~desired:v2 ]);
  check "1-op k-CAS/get" (N.get c == v2)

type pair_rec = { ra : int; rb : string }

let test_native_representation_edges () =
  let fresh x = Sys.opaque_identity x in
  roundtrip "int" 0 (-1) max_int;
  roundtrip "unit" () () ();
  roundtrip "bool" false true false;
  roundtrip "size-0 atom [||]" ([||] : int array) [| 1 |] [| 2 |] ~v1':[| 1 |];
  roundtrip "boxed float" 1.0 (fresh 2.0 +. 0.5) nan ~v1':(fresh 2.0 +. 0.5);
  roundtrip "float array" [| 1.0 |] [| 1.0; 2.0 |] (Array.make 3 0.5) ~v1':[| 1.0; 2.0 |];
  roundtrip "empty float array" ([||] : float array) [| 0.0 |] [| 0.0; 0.0 |];
  roundtrip "string" "" (String.make 3 'x') "abc" ~v1':(String.make 3 'x');
  roundtrip "tag-0 tuple" (fresh 1, "a") (fresh 2, "b") (fresh 3, "c") ~v1':(fresh 2, "b");
  roundtrip "tag-0 record" { ra = fresh 1; rb = "a" } { ra = fresh 2; rb = "b" }
    { ra = fresh 3; rb = "c" } ~v1':{ ra = fresh 2; rb = "b" };
  roundtrip "ref" (ref 1) (ref 2) (ref 3) ~v1':(ref 2);
  let k = fresh 2 in
  roundtrip "closure" (fun x -> x + 1) (fun x -> x + k) (fun x -> x * k) ~v1':(fun x -> x + k);
  (* [odd] points into the middle of a shared closure block *)
  let rec even n = n = 0 || odd (n - 1) and odd n = n <> 0 && even (n - 1) in
  roundtrip "mutually recursive closures" even odd (fun n -> n > k);
  roundtrip "lazy" (lazy (fresh 1 + 1)) (lazy (fresh 2 + 1)) (Lazy.from_fun (fun () -> k));
  roundtrip "int list" [] [ fresh 1; 2 ] [ 3 ] ~v1':[ fresh 1; 2 ];
  let x = ncell 0 and y = ncell 0 and z = ncell 1 in
  roundtrip "cell holding a cell" x y z;
  roundtrip "Some cell" None (Some x) (Some y) ~v1':(Some x);
  roundtrip "a k-CAS op as a value"
    (N.kcas_op x ~expected:0 ~desired:1)
    (N.kcas_op y ~expected:0 ~desired:1)
    (N.kcas_op z ~expected:1 ~desired:2)
    ~v1':(N.kcas_op y ~expected:0 ~desired:1);
  let c = ncell (-5) in
  Alcotest.(check int) "fetch_and_add returns the old value" (-5) (N.fetch_and_add c 7);
  Alcotest.(check int) "fetch_and_add added" 2 (N.get c);
  Alcotest.(check int) "fetch_and_add wraps like int" 2 (N.fetch_and_add c max_int);
  Alcotest.(check int) "wrapped" (2 + max_int) (N.get c);
  (* a cell whose content is a cell currently publishing a descriptor is
     still a plain value *)
  let a, _ = stalled_commit () in
  let outer = ncell a and opt = ncell (Some a) in
  Alcotest.(check bool) "cell holding an occupied cell" true (N.get outer == a);
  Alcotest.(check bool) "cas on it" true (N.cas outer a x && N.get outer == x);
  Alcotest.(check bool) "Some occupied cell" true (match N.get opt with Some a' -> a' == a | None -> false);
  N.set a 4;
  Alcotest.(check int) "the occupied cell is finished by its own write" 4 (N.get a)

(* Random operation sequences over cells of mixed types against a
   sequential reference model.  Pooled cells hold values from a fixed
   pool of four pairwise physically distinct values (some structurally
   equal),
   so the model is an index and physical equality is index equality;
   int cells also take [fetch_and_add]. *)
type model_cell =
  | Ints : int N.r * int ref -> model_cell
  | Pooled : 'a N.r * 'a list * int ref -> model_cell

type model_op =
  | M_get of int
  | M_set of int * int
  | M_cas of int * int * int  (** expected [-1]: the current value *)
  | M_faa of int * int
  | M_kcas of (int * int * int) list

(* Each pool makes a fresh cell holding the pool's first value. *)
let pools () =
  let fresh x = Sys.opaque_identity x in
  let pooled pool () = Pooled (ncell (List.hd pool), pool, ref 0) in
  let c0 = ncell 0 and c1 = ncell 1 in
  [
    pooled [ "a"; String.make 1 'a'; "b"; "" ];
    pooled [ 1.0; fresh 0.5 +. 0.5; nan; -0.0 ];
    pooled [ [||]; [| 1.0 |]; [| 1.0 |]; [| 2.0; 3.0 |] ];
    pooled [ []; [ fresh 1 ]; [ fresh 1 ]; [ 2; 3 ] ];
    pooled [ None; Some c0; Some c0; Some c1 ];
    pooled
      [
        N.kcas_op c0 ~expected:0 ~desired:1;
        N.kcas_op c0 ~expected:0 ~desired:1;
        N.kcas_op c1 ~expected:1 ~desired:2;
        N.kcas_op c1 ~expected:1 ~desired:0;
      ];
  ]

let n_ints = 2

let model_ops ncells =
  let open QCheck.Gen in
  let cell = int_bound (ncells - 1) and v = int_bound 3 in
  let exp = int_range (-1) 3 in
  frequency
    [
      (3, map (fun c -> M_get c) cell);
      (2, map2 (fun c x -> M_set (c, x)) cell v);
      (3, map3 (fun c e d -> M_cas (c, e, d)) cell exp v);
      (2, map2 (fun c n -> M_faa (c, n)) (int_bound (n_ints - 1)) (int_range (-3) 3));
      ( 3,
        map
          (fun l ->
            M_kcas (List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) l))
          (list_size (int_range 2 4) (triple cell exp v)) );
    ]

let show_op = function
  | M_get c -> Printf.sprintf "get %d" c
  | M_set (c, x) -> Printf.sprintf "set %d %d" c x
  | M_cas (c, e, d) -> Printf.sprintf "cas %d %d %d" c e d
  | M_faa (c, n) -> Printf.sprintf "faa %d %d" c n
  | M_kcas l ->
      "kcas ["
      ^ String.concat "; " (List.map (fun (c, e, d) -> Printf.sprintf "%d %d %d" c e d) l)
      ^ "]"

let prop_native_model =
  let pools = pools () in
  let ncells = n_ints + List.length pools in
  QCheck.Test.make ~count:300 ~name:"native: mixed-type cells match a sequential model"
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map show_op l))
              Gen.(list_size (int_bound 40) (model_ops ncells)))
    (fun ops ->
      let cells =
        Array.of_list
          (List.init n_ints (fun _ -> Ints (ncell 0, ref 0)) @ List.map (fun p -> p ()) pools)
      in
      let matches = function
        | Ints (r, m) -> N.get r = !m
        | Pooled (r, pool, m) -> N.get r == List.nth pool !m
      in
      (* expected [-1] stands for the current value *)
      let exp_of m e = if e < 0 then !m else e in
      (* the op over one cell, as a k-CAS triple, with whether the model
         expects it to match *)
      let triple (c, e, d) =
        match cells.(c) with
        | Ints (r, m) -> (N.kcas_op r ~expected:(exp_of m e) ~desired:d, !m = exp_of m e, fun () -> m := d)
        | Pooled (r, pool, m) ->
            let e = exp_of m e in
            ( N.kcas_op r ~expected:(List.nth pool e) ~desired:(List.nth pool d),
              !m = e,
              fun () -> m := d )
      in
      List.for_all
        (fun op ->
          let result_ok =
            match op with
            | M_get c -> matches cells.(c)
            | M_set (c, x) -> (
                match cells.(c) with
                | Ints (r, m) ->
                    N.set r x;
                    m := x;
                    true
                | Pooled (r, pool, m) ->
                    N.set r (List.nth pool x);
                    m := x;
                    true)
            | M_cas (c, e, d) -> (
                match cells.(c) with
                | Ints (r, m) ->
                    let e = exp_of m e in
                    let expect = !m = e in
                    if expect then m := d;
                    N.cas r e d = expect
                | Pooled (r, pool, m) ->
                    let e = exp_of m e in
                    let expect = !m = e in
                    if expect then m := d;
                    N.cas r (List.nth pool e) (List.nth pool d) = expect)
            | M_faa (c, n) -> (
                match cells.(c) with
                | Ints (r, m) ->
                    let old = !m in
                    m := old + n;
                    N.fetch_and_add r n = old
                | Pooled _ -> true)
            | M_kcas l ->
                let triples = List.map triple l in
                let expect = List.for_all (fun (_, ok, _) -> ok) triples in
                if expect then List.iter (fun (_, _, apply) -> apply ()) triples;
                N.kcas (List.map (fun (op, _, _) -> op) triples) = expect
          in
          result_ok && Array.for_all matches cells)
        ops)

let test_native_disjoint_domains () =
  (* disjoint cell sets never conflict: every commit must succeed *)
  let pairs = Array.init 4 (fun _ -> (ncell 0, ncell 0)) in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let x, y = pairs.(d) in
            let ok = ref true in
            for i = 0 to 999 do
              ok :=
                !ok
                && N.kcas
                     [ N.kcas_op x ~expected:i ~desired:(i + 1);
                       N.kcas_op y ~expected:(-i) ~desired:(-i - 1) ]
            done;
            !ok))
  in
  Array.iter (fun d -> Alcotest.(check bool) "disjoint k-CAS never fails" true (Domain.join d)) domains;
  Array.iter
    (fun (x, y) ->
      Alcotest.(check int) "x counted up" 1000 (N.get x);
      Alcotest.(check int) "y counted down" (-1000) (N.get y))
    pairs

let test_native_overlapping_transfer_stress () =
  (* 4 domains race transfers over 8 shared cells; overlapping commits
     fail and retry.  The total is conserved iff every commit was
     all-or-nothing, including ones finished by helpers. *)
  let n = 8 in
  let cells = Array.init n (fun _ -> ncell 100) in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Ascy_util.Xorshift.create (d + 17) in
            let moved = ref 0 in
            for _ = 1 to 5_000 do
              let i = Ascy_util.Xorshift.below rng n in
              let j = (i + 1 + Ascy_util.Xorshift.below rng (n - 1)) mod n in
              let vi = N.get cells.(i) and vj = N.get cells.(j) in
              if
                vi > 0
                && N.kcas
                     [
                       N.kcas_op cells.(i) ~expected:vi ~desired:(vi - 1);
                       N.kcas_op cells.(j) ~expected:vj ~desired:(vj + 1);
                     ]
              then incr moved
            done;
            !moved))
  in
  let moved = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let total = Array.fold_left (fun acc c -> acc + N.get c) 0 cells in
  Alcotest.(check bool) "some transfers landed" true (moved > 0);
  Alcotest.(check int) "sum conserved across all commits" (n * 100) total

(* Plain writes race overlapping k-CAS commits on shared cells; every
   final value is exact only if each commit is all-or-nothing and each
   plain operation that meets a descriptor helps it rather than losing or
   duplicating an update.  [x] takes commits (+1) and [fetch_and_add]
   (+1), [w] holds a boxed count bumped by commits and by [cas] loops on
   both domains, and the commits read [z] back unchanged while [set]
   writes 1, 2, ... into it, so the commit must fail and retry whenever
   a set got in.  Both domains first race [cas] increments of [k]. *)
let test_native_plain_vs_kcas_stress () =
  let x = ncell 0 and w = ncell (Some 0) and z = ncell 0 and k = ncell 0 in
  let rec incr_k () =
    let v = N.get k in
    if not (N.cas k v (v + 1)) then incr_k ()
  in
  let rec bump () =
    let vw = N.get w in
    let n = match vw with Some n -> n | None -> assert false in
    if not (N.cas w vw (Some (n + 1))) then bump ()
  in
  let commits = 10_000 and plains = 10_000 in
  let ready = Atomic.make 0 in
  let start () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to plains do
      incr_k ()
    done
  in
  let committer =
    Domain.spawn (fun () ->
        start ();
        for _ = 1 to commits do
          let rec go () =
            let vx = N.get x and vw = N.get w and vz = N.get z in
            let n = match vw with Some n -> n | None -> assert false in
            if
              not
                (N.kcas
                   [
                     N.kcas_op x ~expected:vx ~desired:(vx + 1);
                     N.kcas_op w ~expected:vw ~desired:(Some (n + 1));
                     N.kcas_op z ~expected:vz ~desired:vz;
                   ])
            then go ()
          in
          go ();
          bump ()
        done)
  in
  start ();
  for i = 1 to plains do
    ignore (N.fetch_and_add x 1);
    bump ();
    N.set z i
  done;
  Domain.join committer;
  Alcotest.(check int) "x: every commit and every fetch_and_add" (commits + plains) (N.get x);
  Alcotest.(check (option int)) "w: every commit and every cas" (Some ((2 * commits) + plains)) (N.get w);
  Alcotest.(check int) "z: the last set" plains (N.get z);
  Alcotest.(check int) "k: every cas increment" (2 * plains) (N.get k)

(* A reader races commits that bump [a] and [b] together.  Release
   writes [a] (the lower id) before [b], so between the two a read of
   [b] meets a decided, unreleased entry and must return its desired
   value: reading [a] and then [b] can never see [b] behind [a]. *)
let test_native_reads_never_see_half_commit () =
  let a = ncell 0 and b = ncell 0 in
  let commits = 20_000 in
  let ready = Atomic.make 0 and finished = Atomic.make false in
  let start () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done
  in
  let committer =
    Domain.spawn (fun () ->
        start ();
        for i = 0 to commits - 1 do
          assert (N.kcas [ N.kcas_op a ~expected:i ~desired:(i + 1); N.kcas_op b ~expected:i ~desired:(i + 1) ])
        done;
        Atomic.set finished true)
  in
  start ();
  let torn = ref 0 and reads = ref 0 in
  while not (Atomic.get finished) do
    let va = N.get a in
    let vb = N.get b in
    incr reads;
    if vb < va then incr torn
  done;
  Domain.join committer;
  Alcotest.(check int) (Printf.sprintf "torn reads out of %d" !reads) 0 !torn;
  Alcotest.(check (pair int int)) "every commit landed" (commits, commits) (N.get a, N.get b)

(* ------------------------------------------------------------------ *)
(* Simulator backend                                                   *)
(* ------------------------------------------------------------------ *)

let test_sim_semantics_and_accounting () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let a = SM.make_fresh 0 and b = SM.make_fresh 10 in
      let results = ref [] in
      let body () =
        let push x = results := x :: !results in
        push (SM.kcas []);
        push (SM.kcas [ SM.kcas_op a ~expected:0 ~desired:1; SM.kcas_op b ~expected:10 ~desired:11 ]);
        (* stale expected: whole commit refused, nothing written *)
        push (SM.kcas [ SM.kcas_op a ~expected:0 ~desired:2; SM.kcas_op b ~expected:11 ~desired:12 ]);
        push (SM.get a = 1 && SM.get b = 11)
      in
      let makespan = Sim.run sim [| body |] in
      Alcotest.(check (list bool)) "empty/success/stale/final" [ true; true; false; true ]
        (List.rev !results);
      let st = Sim.stats sim ~makespan in
      (* the ASCY4 k-word policy's accounting: each commit attempt
         charges one RMW per distinct touched line — two 2-line commits
         (one failed) = 4 atomics *)
      Alcotest.(check int) "one rmw per line per commit attempt" 4 st.Sim.atomics)

let test_sim_duplicate_rejected () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let failed = ref false in
      let body () =
        let a = SM.make_fresh 0 in
        try ignore (SM.kcas [ SM.kcas_op a ~expected:0 ~desired:1; SM.kcas_op a ~expected:1 ~desired:2 ])
        with Invalid_argument m -> failed := m = "Memory.kcas: duplicate cell"
      in
      ignore (Sim.run sim [| body |]);
      Alcotest.(check bool) "same cell twice rejected in the simulator" true !failed)

let test_sim_probe_atomicity () =
  (* a 2-line commit flips (0, 0) to (1, 1); a concurrent 2-word probe
     k-CAS — itself atomic — can witness either state but never the
     forbidden mixed ones, no matter how the commit interleaves with
     the prober's loop *)
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let a = SM.make_fresh 0 and b = SM.make_fresh 0 in
      let mixed = ref 0 and consistent = ref 0 in
      let bodies =
        [|
          (fun () ->
            SM.work 40;
            assert (SM.kcas [ SM.kcas_op a ~expected:0 ~desired:1; SM.kcas_op b ~expected:0 ~desired:1 ]));
          (fun () ->
            for _ = 1 to 20 do
              if
                SM.kcas [ SM.kcas_op a ~expected:0 ~desired:0; SM.kcas_op b ~expected:1 ~desired:1 ]
                || SM.kcas [ SM.kcas_op a ~expected:1 ~desired:1; SM.kcas_op b ~expected:0 ~desired:0 ]
              then incr mixed;
              if
                SM.kcas [ SM.kcas_op a ~expected:0 ~desired:0; SM.kcas_op b ~expected:0 ~desired:0 ]
                || SM.kcas [ SM.kcas_op a ~expected:1 ~desired:1; SM.kcas_op b ~expected:1 ~desired:1 ]
              then incr consistent
            done);
        |]
      in
      ignore (Sim.run sim bodies);
      Alcotest.(check int) "no probe ever sees a half-applied commit" 0 !mixed;
      Alcotest.(check int) "every probe round sees a consistent state" 20 !consistent;
      Alcotest.(check bool) "commit landed" true (SM.get a = 1 && SM.get b = 1))

let test_sim_disjoint_and_overlapping () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let a = SM.make_fresh 0 and b = SM.make_fresh 0 and c = SM.make_fresh 0 in
      let d = SM.make_fresh 0 and e = SM.make_fresh 0 in
      (* each thread owns a private cell and both bump the shared [b]:
         read-validate-retry on b, like a PathCAS commit *)
      let bump priv delta () =
        let rec go tries =
          if tries > 100 then Alcotest.fail "overlapping k-CAS starved"
          else
            let v = SM.get b in
            if
              not
                (SM.kcas
                   [ SM.kcas_op b ~expected:v ~desired:(v + delta); SM.kcas_op priv ~expected:0 ~desired:1 ])
            then go (tries + 1)
        in
        go 0
      in
      let bodies =
        [|
          (fun () ->
            (* disjoint pair (d, e): cannot conflict with the other thread *)
            assert (SM.kcas [ SM.kcas_op d ~expected:0 ~desired:1; SM.kcas_op e ~expected:0 ~desired:1 ]);
            bump a 1 ());
          bump c 10;
        |]
      in
      ignore (Sim.run sim bodies);
      Alcotest.(check bool) "disjoint pair committed" true (SM.get d = 1 && SM.get e = 1);
      Alcotest.(check int) "shared cell carries both overlapping updates" 11 (SM.get b);
      Alcotest.(check bool) "both private cells committed" true (SM.get a = 1 && SM.get c = 1))

let suite =
  [
    Alcotest.test_case "native: k-CAS semantics" `Quick test_native_semantics;
    Alcotest.test_case "native: duplicate cell rejected" `Quick test_native_duplicate_rejected;
    Alcotest.test_case "native: stalled committer finished by helper" `Quick test_native_helping;
    Alcotest.test_case "native: values shaped like the encoding round-trip" `Quick
      test_native_representation_edges;
    QCheck_alcotest.to_alcotest prop_native_model;
    Alcotest.test_case "native: disjoint sets never fail (4 domains)" `Quick
      test_native_disjoint_domains;
    Alcotest.test_case "native: overlapping transfer stress conserves (4 domains)" `Quick
      test_native_overlapping_transfer_stress;
    Alcotest.test_case "native: plain writes race overlapping k-CAS (2 domains)" `Quick
      test_native_plain_vs_kcas_stress;
    Alcotest.test_case "native: reads never see a half-applied commit (2 domains)" `Quick
      test_native_reads_never_see_half_commit;
    Alcotest.test_case "sim: semantics + per-line rmw accounting" `Quick
      test_sim_semantics_and_accounting;
    Alcotest.test_case "sim: duplicate cell rejected" `Quick test_sim_duplicate_rejected;
    Alcotest.test_case "sim: probes never see a half-applied commit" `Quick
      test_sim_probe_atomicity;
    Alcotest.test_case "sim: disjoint vs overlapping commits" `Quick
      test_sim_disjoint_and_overlapping;
  ]
