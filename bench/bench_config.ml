(* Global scaling knobs for the benchmark harness.

   The simulator executes every shared-memory access as an effect, so a
   full paper-sized sweep (5-second runs, 11 repetitions, 6 platforms) is
   not a realistic default.  Modes scale structure sizes and op counts
   while preserving the workload *shapes*:

   - quick:   CI-sized, ~2-4 minutes total
   - default: ~10-15 minutes
   - full:    closer to paper-sized structures (hours)

   Select with ASCY_BENCH_MODE=quick|default|full. *)

type mode = Quick | Default | Full

let mode =
  match Sys.getenv_opt "ASCY_BENCH_MODE" with
  | Some "quick" -> Quick
  | Some "full" -> Full
  | _ -> Default

(* Coherence cost model for every simulated run in the sweep.  Select
   with ASCY_BENCH_MODEL=mesi|moesi|flat (default mesi).  "flat" prices
   every access as an L1 hit — useless for measurement, but it turns the
   sweep into a fast functional smoke test of the whole harness. *)
let model =
  match Sys.getenv_opt "ASCY_BENCH_MODEL" with
  | Some m -> Ascy_mem.Models.by_name_or_exit ~prog:"bench" m
  | None -> Ascy_mem.Sim.default_model

let scale n = match mode with Quick -> max 1 (n / 8) | Default -> n | Full -> n * 4

(* Linked lists cost O(size) simulated accesses per op: scale their
   element counts down harder than the log-depth structures. *)
let list_elems n = match mode with Quick -> max 16 (n / 16) | Default -> max 32 (n / 8) | Full -> n

let tree_elems n = match mode with Quick -> max 64 (n / 4) | Default -> n | Full -> n

let ops_per_thread = match mode with Quick -> 60 | Default -> 150 | Full -> 1000

let sweep_threads = match mode with Quick -> [ 1; 10; 20 ] | Default -> [ 1; 5; 10; 20 ] | Full -> [ 1; 5; 10; 15; 20; 30; 40 ]

let platforms =
  match mode with
  | Quick -> [ Ascy_platform.Platform.xeon20 ]
  | Default ->
      [ Ascy_platform.Platform.opteron; Ascy_platform.Platform.xeon20; Ascy_platform.Platform.t44 ]
  | Full -> Ascy_platform.Platform.main_five

let base_threads = 20

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"
