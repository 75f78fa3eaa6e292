(* §4's brief remark: "We briefly experiment with non-uniform workloads
   ... such as those with update spikes and continuously increasing
   structure size.  We notice that our observations are valid in these
   scenarios as well."

   Two scenarios on the hash tables (the family where skew bites
   hardest):
   - skewed popularity: 80% of operations on a small hot set;
   - growth: insert-heavy workload that doubles the structure size.
   Check: the ASCY ordering (async >= clht >= pugh >= tbb/coupling) is
   preserved. *)

open Ascylib
module W = Ascy_harness.Workload
module Engine = Ascy_harness.Engine
module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module Rep = Ascy_harness.Report
module Res = Ascy_harness.Results
module J = Ascy_util.Json

let algos = [ "ht-async"; "ht-clht-lb"; "ht-pugh"; "ht-java"; "ht-tbb" ]

(* A custom driver: Sim_run covers uniform workloads; spikes and skew
   need their own loop, still executed through the engine. *)
let run_custom name ~nthreads ~initial ~body_gen =
  let entry = Registry.by_name name in
  let module A = (val entry.Registry.maker) in
  let module M = A (Sim.Mem) in
  let cfg = { (Engine.default ~platform:P.xeon20 ~nthreads) with Engine.model = Bench_config.model } in
  Engine.with_session cfg (fun session ->
      let sim = session.Engine.sim in
      let t = M.create ~hint:initial () in
      let rng0 = Ascy_util.Xorshift.create 17 in
      let filled = ref 0 in
      while !filled < initial do
        if M.insert t (1 + Ascy_util.Xorshift.below rng0 (2 * initial)) 0 then incr filled
      done;
      Sim.warm sim;
      let ops = Array.make nthreads 0 in
      let bodies =
        Array.init nthreads (fun tid () ->
            ops.(tid) <-
              body_gen tid ~search:(fun k -> ignore (M.search t k))
                ~insert:(fun k -> ignore (M.insert t k tid))
                ~remove:(fun k -> ignore (M.remove t k))
                ~op_done:(fun () -> M.op_done t))
      in
      let makespan = Engine.run session bodies in
      let stats = Sim.stats sim ~makespan in
      let total = Array.fold_left ( + ) 0 ops in
      (float_of_int total /. stats.Sim.seconds /. 1e6, M.size t))

let skewed tid ~search ~insert ~remove ~op_done =
  let w = W.make ~initial:4096 ~update_pct:20 () in
  let skew = { W.hot_keys = 64; hot_pct = 80 } in
  let rng = Ascy_util.Xorshift.create (tid + 41) in
  let n = Bench_config.ops_per_thread * 2 in
  for _ = 1 to n do
    let k = W.pick_key_skewed w skew rng in
    (match W.pick_op w rng with
    | W.Search -> search k
    | W.Insert -> insert k
    | W.Remove -> remove k);
    op_done ()
  done;
  n

let growth tid ~search ~insert ~remove:_ ~op_done =
  (* 60% inserts over an ever-widening range: size grows continuously *)
  let rng = Ascy_util.Xorshift.create (tid + 43) in
  let n = Bench_config.ops_per_thread * 2 in
  for i = 1 to n do
    let range = 8192 + (i * 16) in
    let k = 1 + Ascy_util.Xorshift.below rng range in
    if Ascy_util.Xorshift.below rng 100 < 60 then insert k else search k;
    op_done ()
  done;
  n

let run () =
  Bench_config.section "Non-uniform workloads (4's remark): skew and growth";
  let rows =
    List.map
      (fun name ->
        let skew_tput, _ = run_custom name ~nthreads:20 ~initial:4096 ~body_gen:skewed in
        let grow_tput, final = run_custom name ~nthreads:20 ~initial:4096 ~body_gen:growth in
        (* custom drivers bypass Sim_run, so serialize a reduced record *)
        List.iter
          (fun (label, tput, size) ->
            Res.record
              (J.Obj
                 [
                   ("label", J.String label);
                   ("kind", J.String "custom");
                   ("algorithm", J.String name);
                   ("platform", J.String P.xeon20.P.name);
                   ("nthreads", J.Int 20);
                   ("throughput_mops", J.Float tput);
                   ("final_size", match size with Some s -> J.Int s | None -> J.Null);
                 ]))
          [ ("skewed-80/20", skew_tput, None); ("growing", grow_tput, Some final) ];
        [ name; Rep.f2 skew_tput; Rep.f2 grow_tput; string_of_int final ])
      algos
  in
  Rep.table ~title:"80/20-skewed and continuously-growing workloads, 20 threads (Xeon20)"
    [ "algorithm"; "skewed Mops/s"; "growing Mops/s"; "final size" ]
    rows
