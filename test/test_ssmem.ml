(* Tests for SSMEM (epoch-based reclamation) and RCU. *)

module Sim = Ascy_mem.Sim
module SMem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Ssmem_s = Ascy_ssmem.Ssmem.Make (SMem)
module Rcu_s = Ascy_rcu.Rcu.Make (SMem)

(* Run [f] with SSMEM's garbage threshold set to [n], restoring it after. *)
let with_gc_threshold n f =
  let saved = !Ascy_ssmem.Ssmem.gc_threshold in
  Ascy_ssmem.Ssmem.gc_threshold := n;
  Fun.protect ~finally:(fun () -> Ascy_ssmem.Ssmem.gc_threshold := saved) f

let create_with_threshold n ?reclaimer () =
  with_gc_threshold n (fun () -> Ssmem_s.create ?reclaimer ())

let test_no_reclaim_before_quiescence () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let a = create_with_threshold 4 () in
      let body tid () =
        if tid = 0 then begin
          (* free a lot without thread 1 ever quiescing *)
          for i = 1 to 40 do
            Ssmem_s.free a i;
            Ssmem_s.quiesce a
          done
        end
        else
          (* thread 1 stays "active": bump once, then never again *)
          SMem.work 10
      in
      ignore (Sim.run sim (Array.init 2 body));
      let st = Ssmem_s.stats a in
      Alcotest.(check int) "all frees recorded" 40 st.Ssmem_s.freed;
      (* thread 1's ts is 0 and never moved -> but the stamp treats 0 as
         idle, so batches should reclaim *)
      Alcotest.(check bool) "gc passes happened" true (st.Ssmem_s.gc_passes > 0))

let test_blocked_by_active_reader () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let a = create_with_threshold 4 () in
      let body tid () =
        if tid = 1 then begin
          (* announce activity once (ts becomes 1), then go silent while
             thread 0 frees: reclamation must stall *)
          Ssmem_s.quiesce a;
          SMem.work 5
        end
        else begin
          SMem.work 2000 (* let thread 1 tick first *);
          for i = 1 to 40 do
            Ssmem_s.free a i
          done
        end
      in
      ignore (Sim.run sim (Array.init 2 body));
      let st = Ssmem_s.stats a in
      Alcotest.(check bool)
        (Printf.sprintf "pending garbage is held back (pending=%d)" st.Ssmem_s.pending)
        true
        (st.Ssmem_s.pending > 0))

let test_reclaim_after_all_quiesce () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:3 (fun sim ->
      let a = create_with_threshold 8 () in
      let body tid () =
        if tid = 0 then
          for i = 1 to 100 do
            Ssmem_s.free a i;
            Ssmem_s.quiesce a
          done
        else
          (* peers must keep quiescing across the whole simulated span of
             thread 0, otherwise late batches rightfully stall *)
          for _ = 1 to 500 do
            Ssmem_s.quiesce a;
            SMem.work 100
          done
      in
      ignore (Sim.run sim (Array.init 3 body));
      (* one more free cycle from a fresh run would reclaim; check most got
         reclaimed during the run *)
      let st = Ssmem_s.stats a in
      Alcotest.(check bool)
        (Printf.sprintf "most garbage reclaimed (%d/%d)" st.Ssmem_s.reclaimed st.Ssmem_s.freed)
        true
        (st.Ssmem_s.reclaimed > st.Ssmem_s.freed / 2))

let test_reclaimer_callback () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
      let hit = ref 0 in
      let a = create_with_threshold 2 ~reclaimer:(fun _ -> incr hit) () in
      let body _ () =
        for i = 1 to 20 do
          Ssmem_s.free a i;
          Ssmem_s.quiesce a
        done
      in
      ignore (Sim.run sim (Array.init 2 body));
      Alcotest.(check bool) "reclaimer invoked" true (!hit > 0))

(* The threshold reaches structures built through registry makers: the
   path [bench/exp_ssmem.ml] and [Ascy_check] set it on. *)
let test_threshold_reaches_registry_makers () =
  let gc_passes threshold =
    let saved = !Ascy_ssmem.Ssmem.gc_threshold in
    let r =
      with_gc_threshold threshold (fun () ->
          Ascy_harness.Sim_run.run (Ascylib.Registry.by_name "ll-lazy").Ascylib.Registry.maker
            ~platform:P.xeon20 ~nthreads:4
            ~workload:(Ascy_harness.Workload.make ~initial:64 ~update_pct:50 ())
            ~ops_per_thread:200 ())
    in
    Alcotest.(check int) "threshold restored" saved !Ascy_ssmem.Ssmem.gc_threshold;
    r.Ascy_harness.Sim_run.stats.Sim.events.(Ascy_mem.Event.gc_pass)
  in
  let low = gc_passes 4 and high = gc_passes 1_000_000 in
  Alcotest.(check bool) (Printf.sprintf "threshold 4: gc passes (%d) > 0" low) true (low > 0);
  Alcotest.(check int) "threshold 1_000_000: no gc pass" 0 high

let test_rcu_readers_never_see_freed () =
  (* writer swaps a boxed value and synchronizes before "freeing" (we mark
     the box poisoned); readers must never observe a poisoned box. *)
  Sim.with_sim ~platform:P.xeon20 ~nthreads:4 (fun sim ->
      let rcu = Rcu_s.create () in
      let box = SMem.make_fresh (SMem.make_fresh 1) in
      let bad = SMem.make_fresh 0 in
      let body tid () =
        if tid = 0 then
          for i = 2 to 60 do
            let old = SMem.get box in
            SMem.set box (SMem.make_fresh i);
            Rcu_s.synchronize rcu;
            SMem.set old 0 (* poison: safe only after grace period *)
          done
        else
          for _ = 1 to 150 do
            Rcu_s.read_lock rcu;
            let b = SMem.get box in
            SMem.work 4;
            if SMem.get b = 0 then SMem.set bad 1;
            Rcu_s.read_unlock rcu
          done
      in
      ignore (Sim.run sim (Array.init 4 body));
      Alcotest.(check int) "grace periods protect readers" 0 (SMem.get bad))

let test_rcu_synchronize_no_readers () =
  Sim.with_sim ~platform:P.xeon20 ~nthreads:1 (fun sim ->
      let rcu = Rcu_s.create () in
      let body () = Rcu_s.synchronize rcu in
      ignore (Sim.run sim [| body |]);
      Alcotest.(check pass) "synchronize with no readers returns" () ())

(* Native create must not force a minor collection.  [Mem_native]
   sizes the timestamp vector for 512 threads; OCaml allocates an array
   over 256 words directly in the major heap, and when its initial
   element is young the runtime first empties the minor heap (promoting
   every cell built so far).  One SSMEM per bucket list made a native
   list-bucket table's create pay hundreds of them.  So after emptying
   the minor heap, creates that fit in half of it must run none. *)
let test_native_create_no_minor_gc () =
  let module S = Ascy_ssmem.Ssmem.Make (Ascy_mem.Mem_native) in
  let create () = ignore (Sys.opaque_identity (S.create ())) in
  let w0 = Gc.minor_words () in
  create ();
  let per_create = Gc.minor_words () -. w0 in
  let creates = int_of_float (float_of_int ((Gc.get ()).Gc.minor_heap_size / 2) /. per_create) in
  Alcotest.(check bool) "at least one create fits" true (creates >= 1);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to creates do
    create ()
  done;
  Alcotest.(check int)
    (Printf.sprintf "minor collections over %d creates" creates)
    0
    ((Gc.quick_stat ()).Gc.minor_collections - before)

let suite =
  [
    Alcotest.test_case "native create forces no minor collection" `Quick
      test_native_create_no_minor_gc;
    Alcotest.test_case "idle threads don't block reclamation" `Quick
      test_no_reclaim_before_quiescence;
    Alcotest.test_case "active reader blocks reclamation" `Quick test_blocked_by_active_reader;
    Alcotest.test_case "reclaim after quiescence" `Quick test_reclaim_after_all_quiesce;
    Alcotest.test_case "reclaimer callback fires" `Quick test_reclaimer_callback;
    Alcotest.test_case "threshold reaches registry makers" `Quick
      test_threshold_reaches_registry_makers;
    Alcotest.test_case "rcu grace periods protect readers" `Quick test_rcu_readers_never_see_freed;
    Alcotest.test_case "rcu synchronize with no readers" `Quick test_rcu_synchronize_no_readers;
  ]
