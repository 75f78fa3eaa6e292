(* Ablation (§4 "hardware considerations" + experimental settings): the
   SSMEM garbage threshold.  The paper uses 512 everywhere except the
   Tilera, where large garbage volumes thrash the tiny TLBs and the
   threshold is lowered to 128.  We sweep the threshold on the Tilera
   model with an update-heavy lazy list and report throughput plus
   reclamation statistics.  The threshold is [Ascy_ssmem.Ssmem.gc_threshold],
   which every structure's allocator reads when the registry maker
   builds it. *)

open Ascylib
module W = Ascy_harness.Workload
module R = Ascy_harness.Sim_run
module Rep = Ascy_harness.Report
module Res = Ascy_harness.Results

let run () =
  Bench_config.section "Ablation — SSMEM GC threshold (Tilera model, ll-lazy, 50% updates)";
  let entry = Registry.by_name "ll-lazy" in
  let wl = W.make ~initial:(Bench_config.list_elems 1024) ~update_pct:50 () in
  let rows =
    List.map
      (fun threshold ->
        Ascy_ssmem.Ssmem.gc_threshold := threshold;
        let r =
          Fun.protect
            ~finally:(fun () -> Ascy_ssmem.Ssmem.gc_threshold := 512)
            (fun () ->
              R.run ~model:Bench_config.model entry.Registry.maker ~platform:Ascy_platform.Platform.tilera ~nthreads:20
                ~workload:wl ~ops_per_thread:(4 * Bench_config.ops_per_thread) ())
        in
        Res.record_sim ~label:(Printf.sprintf "gc-threshold-%d" threshold) r;
        [
          string_of_int threshold;
          Rep.f2 r.R.throughput_mops;
          string_of_int r.R.stats.Ascy_mem.Sim.events.(Ascy_mem.Event.gc_pass);
          Rep.f2 (R.misses_per_op r);
        ])
      [ 8; 32; 128; 512 ]
  in
  Rep.table ~title:"GC threshold vs throughput and collection frequency"
    [ "threshold"; "Mops/s"; "gc passes"; "misses/op" ]
    rows
