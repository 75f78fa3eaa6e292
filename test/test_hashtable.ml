(* Conformance suites for all hash-table algorithms. *)

module Ht = Ascy_hashtable
module Sim = Ascy_mem.Sim
module Engine = Ascy_harness.Engine

(* ht-java's create must not force a minor collection.  OCaml allocates
   an array over 256 words directly in the major heap, and when its
   initial element is young the runtime first runs a minor collection
   (and every element later stored is promoted with it).  Built as one
   512-segment [Array.init], each create paid one: ht-java was the
   costliest structure per explored schedule.  So after emptying the
   minor heap, creates that fit in half of it must run none. *)
let test_java_create_no_minor_gc () =
  let module J = Ht.Java_ht.Make (Sim.Mem) in
  let cfg =
    {
      (Engine.default ~platform:Ascy_platform.Platform.xeon20 ~nthreads:3) with
      Engine.model = Sim.model_of_name "flat";
    }
  in
  Engine.with_session cfg (fun _ ->
      let create () = ignore (Sys.opaque_identity (J.create ~hint:8 ())) in
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
        ((Gc.quick_stat ()).Gc.minor_collections - before))

let suites =
  [
    ("ht-async", Conformance.suite ~concurrent:false "ht-async" (module Ht.Makers.Seq));
    ("ht-coupling", Conformance.suite "ht-coupling" (module Ht.Makers.Coupling));
    ("ht-pugh", Conformance.suite "ht-pugh" (module Ht.Makers.Pugh));
    ("ht-lazy", Conformance.suite "ht-lazy" (module Ht.Makers.Lazy));
    ("ht-copy", Conformance.suite "ht-copy" (module Ht.Makers.Copy));
    ("ht-harris", Conformance.suite "ht-harris" (module Ht.Makers.Harris));
    ("ht-urcu", Conformance.suite "ht-urcu" (module Ht.Urcu_ht.Make));
    ("ht-urcu-ssmem", Conformance.suite "ht-urcu-ssmem" (module Ht.Urcu_ht.Make_ssmem));
    ( "ht-java",
      Conformance.suite "ht-java" (module Ht.Java_ht.Make)
      @ [
          Alcotest.test_case "create forces no minor collection" `Quick
            test_java_create_no_minor_gc;
        ] );
    ("ht-tbb", Conformance.suite "ht-tbb" (module Ht.Tbb_ht.Make));
    ("ht-clht-lb", Conformance.suite "ht-clht-lb" (module Ht.Clht_lb.Make));
    ("ht-clht-lf", Conformance.suite "ht-clht-lf" (module Ht.Clht_lf.Make));
  ]
