(* Generic conformance suite applied to every CSDS implementation.

   Three layers:
   - sequential semantics (native mode, single thread);
   - qcheck model-based testing against a reference set (native mode);
   - deterministic concurrency tests inside the simulator: random
     workloads under several seeds/schedules, then per-key conservation
     (net successful inserts - removes per key must equal final
     membership), structural validation, and size consistency. *)

module Set_intf = Ascy_core.Set_intf
module Sim = Ascy_mem.Sim

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Seq_tests (M : Set_intf.SET) = struct
  let empty () =
    let t = M.create () in
    check "search misses on empty" false (M.search t 5 <> None);
    check "remove fails on empty" false (M.remove t 5);
    checki "size 0" 0 (M.size t);
    check "validate ok" true (M.validate t = Ok ())

  let basic () =
    let t = M.create () in
    check "insert 10" true (M.insert t 10 "a");
    check "insert 10 again fails" false (M.insert t 10 "b");
    check "found" true (M.search t 10 = Some "a");
    check "insert 5" true (M.insert t 5 "c");
    check "insert 15" true (M.insert t 15 "d");
    checki "size 3" 3 (M.size t);
    check "remove 10" true (M.remove t 10);
    check "remove 10 again fails" false (M.remove t 10);
    check "10 gone" true (M.search t 10 = None);
    check "5 intact" true (M.search t 5 = Some "c");
    check "15 intact" true (M.search t 15 = Some "d");
    check "reinsert 10" true (M.insert t 10 "e");
    check "new value visible" true (M.search t 10 = Some "e");
    check "validate ok" true (M.validate t = Ok ())

  let bulk () =
    let t = M.create () in
    let n = 200 in
    let keys = Array.init n (fun i -> (i * 37) + 1) in
    (* shuffle deterministically *)
    let rng = Ascy_util.Xorshift.create 7 in
    for i = n - 1 downto 1 do
      let j = Ascy_util.Xorshift.below rng (i + 1) in
      let tmp = keys.(i) in
      keys.(i) <- keys.(j);
      keys.(j) <- tmp
    done;
    Array.iter (fun k -> check "bulk insert" true (M.insert t k (string_of_int k))) keys;
    checki "bulk size" n (M.size t);
    Array.iter (fun k -> check "bulk search" true (M.search t k = Some (string_of_int k))) keys;
    check "validate ok" true (M.validate t = Ok ());
    (* remove every other key *)
    Array.iteri (fun i k -> if i mod 2 = 0 then check "bulk remove" true (M.remove t k)) keys;
    checki "half size" (n / 2) (M.size t);
    Array.iteri
      (fun i k ->
        let expect = i mod 2 = 1 in
        check "post-remove membership" expect (M.search t k <> None))
      keys;
    check "validate ok after removes" true (M.validate t = Ok ())

  let boundaries () =
    let t = M.create () in
    check "insert min_key" true (M.insert t Set_intf.min_key "lo");
    check "insert max_key" true (M.insert t Set_intf.max_key "hi");
    check "find min_key" true (M.search t Set_intf.min_key = Some "lo");
    check "find max_key" true (M.search t Set_intf.max_key = Some "hi");
    check "remove min_key" true (M.remove t Set_intf.min_key);
    check "remove max_key" true (M.remove t Set_intf.max_key);
    checki "empty again" 0 (M.size t)

  let no_read_only_fail () =
    (* the ASCY3 toggle must not change semantics *)
    let t = M.create ~read_only_fail:false () in
    check "insert" true (M.insert t 3 "x");
    check "dup insert fails" false (M.insert t 3 "y");
    check "remove missing fails" false (M.remove t 4);
    check "remove" true (M.remove t 3);
    check "gone" true (M.search t 3 = None)

  let model_arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | `Insert k -> Printf.sprintf "i%d" k
               | `Remove k -> Printf.sprintf "r%d" k
               | `Search k -> Printf.sprintf "s%d" k)
             ops))
      QCheck.Gen.(
        list_size (int_range 1 120)
          (oneof
             [
               map (fun k -> `Insert (k land 31)) small_nat;
               map (fun k -> `Remove (k land 31)) small_nat;
               map (fun k -> `Search (k land 31)) small_nat;
             ]))

  let model_prop ops =
    let t = M.create () in
    let model = Hashtbl.create 32 in
    List.for_all
      (fun o ->
        match o with
        | `Insert k ->
            let expect = not (Hashtbl.mem model k) in
            if expect then Hashtbl.replace model k k;
            M.insert t k k = expect
        | `Remove k ->
            let expect = Hashtbl.mem model k in
            Hashtbl.remove model k;
            M.remove t k = expect
        | `Search k -> M.search t k = (if Hashtbl.mem model k then Some k else None))
      ops
    && M.size t = Hashtbl.length model
    && M.validate t = Ok ()
end

(* ------------------------------------------------------------------ *)

(* Simulated concurrent workload: [nthreads] threads perform random
   mixed operations; afterwards we check conservation per key. *)
let sim_stress (module Maker : Set_intf.MAKER) ~seed ~nthreads ~key_range ~ops ~updates () =
  let module M = Maker (Sim.Mem) in
  Sim.with_sim ~platform:Ascy_platform.Platform.xeon20 ~nthreads (fun sim ->
      let t = M.create ~hint:key_range () in
      (* prefill half the range so removes succeed early *)
      for k = 0 to key_range - 1 do
        if k land 1 = 0 then ignore (M.insert t k (-1))
      done;
      let net = Array.make_matrix nthreads key_range 0 in
      let body tid () =
        let rng = Ascy_util.Xorshift.create (seed + (tid * 7919)) in
        for _ = 1 to ops do
          let k = Ascy_util.Xorshift.below rng key_range in
          let r = Ascy_util.Xorshift.below rng 100 in
          if r < updates / 2 then begin
            if M.insert t k tid then net.(tid).(k) <- net.(tid).(k) + 1
          end
          else if r < updates then begin
            if M.remove t k then net.(tid).(k) <- net.(tid).(k) - 1
          end
          else ignore (M.search t k);
          M.op_done t
        done
      in
      ignore (Sim.run sim (Array.init nthreads body));
      (* conservation: initial + net inserts == final membership *)
      for k = 0 to key_range - 1 do
        let initial = if k land 1 = 0 then 1 else 0 in
        let total = Array.fold_left (fun acc row -> acc + row.(k)) initial net in
        let present = M.search t k <> None in
        if total <> if present then 1 else 0 then
          Alcotest.failf "conservation violated for key %d: net=%d present=%b (seed %d)" k total
            present seed
      done;
      (match M.validate t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "validate failed after stress: %s (seed %d)" e seed);
      let live = ref 0 in
      for k = 0 to key_range - 1 do
        if M.search t k <> None then incr live
      done;
      checki "size agrees with membership" !live (M.size t))

(* Linearizability: record every operation's invocation/response cycle
   stamps and result under a contended simulated schedule, then check
   the history against the sequential set semantics (History.check). *)
let lin_stress (module Maker : Set_intf.MAKER) ~seed ~nthreads ~key_range ~ops ~updates () =
  let module M = Maker (Sim.Mem) in
  let module H = Ascy_harness.History in
  Sim.with_sim ~platform:Ascy_platform.Platform.xeon20 ~nthreads (fun sim ->
      let t = M.create ~hint:key_range () in
      let h = H.create () in
      for k = 0 to key_range - 1 do
        if k land 1 = 0 && M.insert t k (-1) then H.add_initial h k
      done;
      let body tid () =
        let rng = Ascy_util.Xorshift.create (seed + (tid * 7919)) in
        for _ = 1 to ops do
          let k = Ascy_util.Xorshift.below rng key_range in
          let r = Ascy_util.Xorshift.below rng 100 in
          let inv = Sim.now () in
          let kind, result =
            if r < updates / 2 then (H.Insert, M.insert t k tid)
            else if r < updates then (H.Remove, M.remove t k)
            else (H.Search, M.search t k <> None)
          in
          H.record h ~tid ~kind ~key:k ~result ~inv ~res:(Sim.now ());
          M.op_done t
        done
      in
      ignore (Sim.run sim (Array.init nthreads body));
      match H.check h with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "history of %d ops not linearizable (seed %d): %s" (H.length h) seed
            (H.pp_violation v))

(* Same stress with ASCY3 disabled ("-no" variants): exercises the
   lock-then-fail paths concurrently. *)
let no_rof_maker (module A : Set_intf.MAKER) : (module Set_intf.MAKER) =
  (module functor (Mem : Ascy_mem.Memory.S) -> struct
    include A (Mem)

    let create ?hint ?read_only_fail:_ () = create ?hint ~read_only_fail:false ()
  end)

(* Wall-clock bound of a native domain test. *)
let native_deadline_s = 30.0

(* Run [body tid] on [n] fresh domains and join them, or fail naming
   [what] if any is still running after [native_deadline_s]: a native
   run that livelocks fails its own test instead of hanging the suite.
   The stuck domains are left spinning; the process exits without
   joining them. *)
let run_domains ~what n body =
  let finished = Atomic.make 0 in
  let domains =
    Array.init n (fun tid ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.incr finished) (fun () -> body tid)))
  in
  let deadline = Unix.gettimeofday () +. native_deadline_s in
  while Atomic.get finished < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let running = n - Atomic.get finished in
  if running > 0 then
    Alcotest.failf "%s: %d of %d domains still running after %.0f s" what running n
      native_deadline_s;
  Array.map Domain.join domains

(* Native stress with real domains (preemptive interleavings even on one
   core). *)
let native_stress (module Maker : Set_intf.MAKER) ~name ~nthreads ~key_range ~ops ~updates () =
  let module M = Maker (Ascy_mem.Mem_native) in
  let t = M.create ~hint:key_range () in
  for k = 0 to key_range - 1 do
    if k land 1 = 0 then ignore (M.insert t k (-1))
  done;
  let net = Array.make_matrix nthreads key_range 0 in
  let body tid () =
    let rng = Ascy_util.Xorshift.create (tid * 7919) in
    for _ = 1 to ops do
      let k = Ascy_util.Xorshift.below rng key_range in
      let r = Ascy_util.Xorshift.below rng 100 in
      if r < updates / 2 then begin
        if M.insert t k tid then net.(tid).(k) <- net.(tid).(k) + 1
      end
      else if r < updates then begin
        if M.remove t k then net.(tid).(k) <- net.(tid).(k) - 1
      end
      else ignore (M.search t k);
      M.op_done t
    done
  in
  ignore (run_domains ~what:(name ^ ": native domain stress") nthreads (fun tid -> body tid ()));
  for k = 0 to key_range - 1 do
    let initial = if k land 1 = 0 then 1 else 0 in
    let total = Array.fold_left (fun acc row -> acc + row.(k)) initial net in
    let present = M.search t k <> None in
    if total <> if present then 1 else 0 then
      Alcotest.failf "native conservation violated for key %d: net=%d present=%b" k total present
  done;
  match M.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate failed after native stress: %s" e

(** Build the full alcotest case list for one implementation.
    [concurrent = false] for the asynchronized baselines, which are not
    expected to survive concurrent execution. *)
let suite ?(concurrent = true) name (module Maker : Set_intf.MAKER) =
  let module N = Maker (Ascy_mem.Mem_native) in
  let module T = Seq_tests (N) in
  let seq =
    [
      Alcotest.test_case (name ^ ": empty") `Quick T.empty;
      Alcotest.test_case (name ^ ": basic semantics") `Quick T.basic;
      Alcotest.test_case (name ^ ": bulk ordered") `Quick T.bulk;
      Alcotest.test_case (name ^ ": boundary keys") `Quick T.boundaries;
      Alcotest.test_case (name ^ ": read_only_fail=false") `Quick T.no_read_only_fail;
      QCheck_alcotest.to_alcotest ~verbose:false
        (QCheck.Test.make ~count:120
           ~name:(name ^ ": model-based random traces")
           T.model_arb T.model_prop);
    ]
  in
  let conc =
    if not concurrent then []
    else
      List.concat_map
        (fun seed ->
          [
            Alcotest.test_case
              (Printf.sprintf "%s: sim stress 4 thr seed %d" name seed)
              `Quick
              (sim_stress (module Maker) ~seed ~nthreads:4 ~key_range:16 ~ops:300 ~updates:60);
            Alcotest.test_case
              (Printf.sprintf "%s: sim stress 8 thr seed %d" name seed)
              `Quick
              (sim_stress (module Maker) ~seed:(seed + 100) ~nthreads:8 ~key_range:24 ~ops:200
                 ~updates:40);
          ])
        [ 1; 2; 3 ]
      @ [
          Alcotest.test_case (name ^ ": linearizable, 4 thr") `Quick
            (lin_stress (module Maker) ~seed:21 ~nthreads:4 ~key_range:8 ~ops:60 ~updates:60);
          Alcotest.test_case (name ^ ": linearizable, 8 thr") `Quick
            (lin_stress (module Maker) ~seed:22 ~nthreads:8 ~key_range:12 ~ops:40 ~updates:50);
          Alcotest.test_case
            (name ^ ": sim stress 6 thr, read_only_fail=false")
            `Quick
            (sim_stress (no_rof_maker (module Maker)) ~seed:11 ~nthreads:6 ~key_range:16 ~ops:250
               ~updates:50);
          Alcotest.test_case (name ^ ": native domain stress") `Slow
            (native_stress (module Maker) ~name ~nthreads:4 ~key_range:32 ~ops:2000 ~updates:40);
        ]
  in
  seq @ conc
