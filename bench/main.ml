(* ASCYLIB-OCaml benchmark harness.

   Regenerates every table and figure of the paper's evaluation (see
   DESIGN.md's experiment index) on the modeled platforms.  Native
   per-operation cost is measured by the perf ledger (perf/).
   ASCY_BENCH_MODE=quick|default|full scales the sweeps;
   ASCY_BENCH_ONLY=fig4 (comma-separated) selects experiments.

   Next to each experiment's text tables, a structured record of every
   run is written to BENCH_<exp>.json (see Ascy_harness.Results for the
   schema; ASCY_BENCH_OUT overrides the output directory). *)

module Results = Ascy_harness.Results
module J = Ascy_util.Json

let experiments =
  [
    ("table1", Exp_table1.run);
    ("fig2", Exp_fig2.run);
    ("fig3", Exp_fig3.run);
    ("fig4", Exp_fig4.run);
    ("fig5", Exp_fig5.run);
    ("fig6", Exp_fig6.run);
    ("fig7", Exp_fig7.run);
    ("fig8", Exp_fig8.run);
    ("fig9", Exp_fig9.run);
    ("htm", Exp_htm.run);
    ("ssmem", Exp_ssmem.run);
    ("nonuniform", Exp_nonuniform.run);
  ]

let mode_name =
  match Bench_config.mode with
  | Bench_config.Quick -> "quick"
  | Bench_config.Default -> "default"
  | Bench_config.Full -> "full"

let () =
  let only =
    match Sys.getenv_opt "ASCY_BENCH_ONLY" with
    | None -> None
    | Some s -> Some (String.split_on_char ',' s)
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      match only with
      | Some names when not (List.mem name names) -> ()
      | _ ->
          let t = Unix.gettimeofday () in
          (* the coherence model is recorded only when it is not the
             default, so default-model files keep their bytes *)
          Results.with_sink
            ~meta:(("mode", J.String mode_name) :: Ascy_harness.Engine.model_meta Bench_config.model)
            name f;
          Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t))
    experiments;
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
