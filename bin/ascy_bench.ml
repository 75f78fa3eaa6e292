(* ascy_bench: run one CSDS experiment point from the command line.

     ascy_bench --algo ht-clht-lb --threads 20 --platform xeon20 \
                --initial 4096 --updates 20
     ascy_bench --list
     ascy_bench --algo ll-lazy --mode native --duration 1.0

   Simulated runs report the paper's metrics (throughput, latency
   percentiles, power, misses/op, atomics/update); native runs report
   wall-clock throughput on real domains. *)

module Cli = Ascy_harness.Cli
module Registry = Ascylib.Registry
module P = Ascy_platform.Platform

let list () =
  List.iter
    (fun (x : Registry.entry) ->
      Printf.printf "%-14s %-11s %-4s ASCY:%s  %s\n" x.Registry.name
        (Ascy_core.Ascy.family_to_string x.Registry.family)
        (Ascy_core.Ascy.sync_to_string x.Registry.sync)
        (Ascy_core.Ascy.to_string x.Registry.ascy)
        x.Registry.desc)
    Registry.all

let sim ~seed ~latency ~model ~platform ~threads ~workload ~ops (entry : Registry.entry) =
  let module R = Ascy_harness.Sim_run in
  let r =
    R.run ~seed ~latency ~model entry.Registry.maker ~platform ~nthreads:threads ~workload
      ~ops_per_thread:ops ()
  in
  Printf.printf "%s on simulated %s, %d threads, %d ops%s\n" r.R.algorithm r.R.platform r.R.nthreads
    r.R.ops
    (let mn = Ascy_mem.Sim.model_name_of model in
     if mn = Ascy_mem.Sim.model_name_of Ascy_mem.Sim.default_model then ""
     else " [model " ^ mn ^ "]");
  Printf.printf "  throughput : %.3f Mops/s (simulated %.2f ms)\n" r.R.throughput_mops
    (r.R.seconds *. 1e3);
  Printf.printf "  misses/op  : %.2f   atomics/update: %.2f   extra parses: %.2f%%\n"
    (R.misses_per_op r) (R.atomics_per_update r) (R.extra_parse_pct r);
  Printf.printf "  power      : %.2f W   energy: %.4f J\n" r.R.stats.Ascy_mem.Sim.power_w
    r.R.stats.Ascy_mem.Sim.energy_j;
  if latency then begin
    let pr name h =
      if Ascy_util.Histogram.count h > 0 then
        Printf.printf "  %-11s: mean %.0f ns   p1/25/50/75/99 = %s\n" name
          (Ascy_util.Histogram.mean h)
          (Ascy_harness.Report.percentiles h)
    in
    pr "search hit" r.R.latencies.R.search_hit;
    pr "search miss" r.R.latencies.R.search_miss;
    pr "insert ok" r.R.latencies.R.insert_ok;
    pr "insert fail" r.R.latencies.R.insert_fail;
    pr "remove ok" r.R.latencies.R.remove_ok;
    pr "remove fail" r.R.latencies.R.remove_fail
  end;
  Printf.printf "  final size : %d   events: " r.R.final_size;
  Array.iteri
    (fun i v -> if v > 0 then Printf.printf "%s=%d " (Ascy_mem.Event.name i) v)
    r.R.stats.Ascy_mem.Sim.events;
  print_newline ()

let native ~seed ~threads ~workload ~duration (entry : Registry.entry) =
  let module N = Ascy_harness.Native_run in
  let r = N.run ~seed entry.Registry.maker ~nthreads:threads ~workload ~duration () in
  Printf.printf "%s  native  %d domains  %.2fs\n" r.N.algorithm r.N.nthreads r.N.seconds;
  Printf.printf "  ops: %d   throughput: %.3f Mops/s   final size: %d\n" r.N.ops
    r.N.throughput_mops r.N.final_size

let () =
  let list_algos = ref false in
  let entry = ref (Registry.by_name "ht-clht-lb") in
  let mode = ref `Sim in
  let platform = ref P.xeon20 in
  let threads = ref 20 in
  let initial = ref 1024 in
  let updates = ref 10 in
  let ops = ref 300 in
  let latency = ref false in
  let seed = ref 1 in
  let duration = ref 1.0 in
  let model = ref (Some Ascy_mem.Sim.default_model) in
  let flags =
    [
      ("--list", Arg.Set list_algos, " list all implementations and exit");
      Cli.value "-a" Cli.algorithm entry "NAME  algorithm (default ht-clht-lb)";
      Cli.value "-m"
        (Cli.one_of [ ("sim", `Sim); ("native", `Native) ])
        mode "MODE  sim (modeled multicore) or native (real domains) (default sim)";
      Cli.value "-p"
        (fun _ s -> try P.by_name s with Invalid_argument msg -> Cli.fail "%s" msg)
        platform "PLATFORM  simulated platform (default xeon20)";
      Cli.value "-t" (Cli.int ~min:1) threads "N  thread count (default 20)";
      Cli.value "-i" (Cli.int ~min:1) initial "N  initial elements (default 1024)";
      Cli.value "-u" (Cli.int ~min:0) updates "PCT  update percentage (default 10)";
      Cli.value "-o" (Cli.int ~min:1) ops "N  operations per thread, sim (default 300)";
      ("-l", Arg.Set latency, " record latency percentiles");
      Cli.value "-s" Cli.int seed "N  deterministic seed (default 1)";
      Cli.value "-d" Cli.pos_float duration "SECONDS  native run length (default 1.0)";
      Cli.value "--model"
        (fun what s -> if s = "auto" then None else Some (Cli.model what s))
        model
        (Printf.sprintf "NAME  coherence model: %s, or auto for the platform's preferred one \
                         (default mesi)"
           (String.concat "|" Ascy_mem.Models.names));
    ]
  in
  let long =
    [
      ("-a", "--algo"); ("-m", "--mode"); ("-p", "--platform"); ("-t", "--threads");
      ("-i", "--initial"); ("-u", "--updates"); ("-o", "--ops"); ("-l", "--latency");
      ("-s", "--seed"); ("-d", "--duration");
    ]
  in
  let flags =
    List.concat_map
      (fun ((k, spec, doc) as f) ->
        match List.assoc_opt k long with
        | Some l -> [ f; (l, spec, List.hd (String.split_on_char ' ' doc) ^ "  same as " ^ k) ]
        | None -> [ f ])
      flags
  in
  (match Cli.parse ~prog:"ascy_bench" ~usage:"usage: ascy_bench [OPTION ...]" flags with
  | [] -> ()
  | a :: _ -> Cli.fail "unexpected argument %s" a);
  let workload = Ascy_harness.Workload.make ~initial:!initial ~update_pct:!updates () in
  if !list_algos then list ()
  else
    match !mode with
    | `Native -> native ~seed:!seed ~threads:!threads ~workload ~duration:!duration !entry
    | `Sim ->
        let model =
          match !model with
          | Some m -> m
          | None -> Ascy_mem.Sim.model_of_name (P.preferred_model !platform)
        in
        sim ~seed:!seed ~latency:!latency ~model ~platform:!platform ~threads:!threads ~workload
          ~ops:!ops !entry
