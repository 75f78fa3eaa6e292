(* §4 "Hardware considerations": fine-tuning with HTM.

   The paper reports that TSX-style tuning moves throughput by ±5% on a
   4-core Haswell.  We reproduce the experiment on the Haswell model:
   CLHT-LB with transactional lock elision on its update path versus the
   plain lock path, across update rates.  The switch is
   [Ascy_hashtable.Clht_lb.htm], read when the registry maker builds the
   table. *)

open Ascylib
module W = Ascy_harness.Workload
module R = Ascy_harness.Sim_run
module Rep = Ascy_harness.Report
module Res = Ascy_harness.Results

let clht = Registry.by_name "ht-clht-lb"

let run_one ~htm ~rate ~nthreads =
  Ascy_hashtable.Clht_lb.htm := htm;
  Fun.protect
    ~finally:(fun () -> Ascy_hashtable.Clht_lb.htm := false)
    (fun () ->
      let wl = W.make ~initial:(Bench_config.tree_elems 2048) ~update_pct:rate () in
      R.run ~model:Bench_config.model clht.Registry.maker ~platform:Ascy_platform.Platform.haswell ~nthreads ~workload:wl
        ~ops_per_thread:(2 * Bench_config.ops_per_thread) ())

let run () =
  Bench_config.section "HTM — TSX-style lock elision on CLHT-LB (Haswell model, 8 hw threads)";
  let nthreads = 8 in
  let rows =
    List.map
      (fun rate ->
        let plain = run_one ~htm:false ~rate ~nthreads in
        let elided = run_one ~htm:true ~rate ~nthreads in
        Res.record_sim ~label:(Printf.sprintf "lock/%d%%upd" rate) plain;
        Res.record_sim ~label:(Printf.sprintf "htm-elided/%d%%upd" rate) elided;
        [
          Printf.sprintf "%d%%" rate;
          Rep.f2 plain.R.throughput_mops;
          Rep.f2 elided.R.throughput_mops;
          Printf.sprintf "%+.1f%%"
            (100.0 *. (elided.R.throughput_mops -. plain.R.throughput_mops)
            /. plain.R.throughput_mops);
        ])
      [ 1; 10; 20; 50; 100 ]
  in
  Rep.table ~title:"update rate vs throughput, plain lock vs elided (Mops/s)"
    [ "updates"; "lock"; "htm-elided"; "delta" ]
    rows
