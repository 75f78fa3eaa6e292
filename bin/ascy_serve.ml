(* Sharded async KV service driver.

   Usage: ascy_serve [-out DIR] [-seed N] [-model NAME] [-scale smoke|full]
                     [-smoke] [-native] [-lin] [-no-check] [-resil] [SCENARIO ...]

   Runs the service scenario matrix (lib/service/scenario.ml) on the
   multicore simulator: client load generators multiplex thousands of
   sessions over a hash-routed cluster of per-shard sets, each shard
   fed by a bounded MPSC request queue and drained in batches by a
   worker thread.  Scenarios cover a zipf hot-key flash crowd,
   read-mostly vs churn-heavy mixes, deliberate shard skew, and rolling
   shard restarts that reuse the chaos engine's crash-stop fault plans
   (standbys take over the shard lease mid-run).

   Per scenario the driver reports per-shard throughput, sojourn and
   service-time latency percentiles (p50/p99/p999), fail-over counts,
   and the post-run validation + key-conservation verdict; all records
   are written through the structured-results sink to
   DIR/BENCH_service.json.  Every simulated metric derives from the
   virtual clock, so a given seed reproduces the file bit-for-bit
   (modulo the sink's generated_at_unix stamp).

   -native additionally runs each (restart-free) scenario on real OCaml 5
   domains via Mem_native as a smoke check of the same cluster code.
   -lin records shard 0's applied operations during the flash-crowd
   scenario and checks the history for linearizability.  Exit 1 on any
   oracle violation or failed spot-check.

   -resil switches to the resilience fault matrix instead: every
   Service_run.Fault_matrix plan (none / drop / dup / delay /
   slow-shard) crossed with a restart-free scenario and the
   rolling-restart scenario (so message faults compose with F_crash
   fail-overs), all run under the resilient request layer with the
   delivery oracles (at-most-once, no-lost-ack, bounded staleness)
   armed on top of conservation.  Each cell is executed twice and the
   serialized results compared byte-for-byte — the inline replay
   check.  Results go to DIR/RESIL_matrix.json (schema v1) plus the
   usual BENCH_service.json records; exit 1 on any oracle violation
   or replay divergence. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module H = Ascy_util.Histogram
module J = Ascy_util.Json
module Report = Ascy_harness.Report
module Results = Ascy_harness.Results
module Scenario = Ascy_service.Scenario
module Service_run = Ascy_service.Service_run
module Service_native = Ascy_service.Service_native
module Service_results = Ascy_service.Service_results
module Resilience = Ascy_service.Resilience

let p50_99_999 h =
  if H.count h = 0 then ("-", "-", "-")
  else
    ( Report.f1 (H.percentile h 50.0),
      Report.f1 (H.percentile h 99.0),
      Report.f1 (H.percentile h 99.9) )

let () =
  let seed = ref 1 in
  let model = ref "mesi" in
  let scale = ref Scenario.Smoke in
  let native = ref false in
  let lin = ref false in
  let check = ref true in
  let resil = ref false in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "-out" :: d :: rest ->
        Unix.putenv "ASCY_BENCH_OUT" d;
        parse rest
    | "-seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "-model" :: m :: rest ->
        model := m;
        parse rest
    | "-scale" :: s :: rest ->
        (scale :=
           match s with
           | "smoke" -> Scenario.Smoke
           | "full" -> Scenario.Full
           | s -> invalid_arg (Printf.sprintf "unknown scale %S (smoke|full)" s));
        parse rest
    | "-smoke" :: rest ->
        scale := Scenario.Smoke;
        parse rest
    | "-native" :: rest ->
        native := true;
        parse rest
    | "-lin" :: rest ->
        lin := true;
        parse rest
    | "-no-check" :: rest ->
        check := false;
        parse rest
    | "-resil" :: rest ->
        resil := true;
        parse rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_endline
          "usage: ascy_serve [-out DIR] [-seed N] [-model NAME] [-scale smoke|full] [-smoke] \
           [-native] [-lin] [-no-check] [-resil] [SCENARIO ...]";
        Printf.printf "scenarios: %s\n"
          (String.concat ", "
             (List.map (fun sc -> sc.Scenario.name) (Scenario.matrix Scenario.Smoke)));
        exit 0
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let scenarios =
    match !names with
    | [] -> Scenario.matrix !scale
    | names -> List.map (Scenario.by_name !scale) (List.rev names)
  in
  let model_v = Ascy_mem.Models.by_name_or_exit ~prog:"ascy_serve" !model in
  if !resil then begin
    (* Resilience fault matrix: every queue-layer fault plan crossed with
       a restart-free scenario and the rolling-restart one (message
       faults during F_crash fail-overs), resilient layer on, delivery
       oracles armed, each cell executed twice for the inline bit-for-bit
       replay check. *)
    let platform = P.xeon20 in
    let scenarios =
      match !names with
      | [] ->
          [ Scenario.by_name !scale "read-mostly"; Scenario.by_name !scale "rolling-restart" ]
      | names -> List.map (Scenario.by_name !scale) (List.rev names)
    in
    let rcfg = Resilience.default in
    let failed = ref false in
    let entries = ref [] in
    let rows = ref [] in
    Printf.printf "resilience fault matrix: %d scenario(s) x %d fault kind(s), scale %s, seed %d, model %s\n\n"
      (List.length scenarios)
      (List.length Service_run.Fault_matrix.names)
      (Scenario.scale_name !scale) !seed !model;
    Results.with_sink "service" (fun () ->
        List.iter
          (fun sc ->
            List.iter
              (fun fk ->
                let fault_plan ~decisions =
                  Service_run.Fault_matrix.plan fk sc ~platform ~decisions
                in
                let exec () =
                  Service_run.run ~seed:!seed ~model:model_v ~platform ~check:!check
                    ~resil:rcfg ~fault_plan sc
                in
                let label = Printf.sprintf "%s-%s-resil" sc.Scenario.name fk in
                let r = exec () in
                let replay_identical =
                  J.to_string (Service_results.of_run ~label r)
                  = J.to_string (Service_results.of_run ~label (exec ()))
                in
                Results.record (Service_results.of_run ~label r);
                entries :=
                  Service_results.resil_entry ~fault_kind:fk ~replay_identical r :: !entries;
                let verdict =
                  match (r.Service_run.violation, replay_identical) with
                  | Some v, _ ->
                      failed := true;
                      "VIOLATION: " ^ v
                  | None, false ->
                      failed := true;
                      "REPLAY-DIVERGED"
                  | None, true -> "ok"
                in
                let m = r.Service_run.rmetrics in
                rows :=
                  [
                    sc.Scenario.name;
                    fk;
                    string_of_int r.Service_run.ops_applied;
                    string_of_int m.Resilience.m_retries;
                    string_of_int m.Resilience.m_sheds;
                    string_of_int m.Resilience.m_breaker_trips;
                    Printf.sprintf "%d/%d" m.Resilience.m_hedge_wins m.Resilience.m_hedges;
                    string_of_int m.Resilience.m_dup_suppressed;
                    string_of_int m.Resilience.m_deadline_miss;
                    string_of_int r.Service_run.takeovers;
                    verdict;
                  ]
                  :: !rows)
              Service_run.Fault_matrix.names)
          scenarios);
    Report.table ~title:"resilience fault matrix (delivery oracles + replay armed)"
      [
        "scenario"; "fault"; "applied"; "retries"; "sheds"; "trips"; "hedge w/t"; "dedup";
        "misses"; "takeovers"; "verdict";
      ]
      (List.rev !rows);
    let path =
      Service_results.write_resil_matrix
        (Service_results.resil_matrix ~seed:!seed ~model:!model
           ~scale:(Scenario.scale_name !scale) (List.rev !entries))
    in
    Printf.printf "wrote %s\n" path;
    if !failed then begin
      print_endline "FAIL: resilience oracle violation or replay divergence";
      exit 1
    end;
    print_endline "resilience fault matrix clean";
    exit 0
  end;
  let failed = ref false in
  Printf.printf "sharded KV service: %d scenario(s), scale %s, seed %d, model %s%s\n\n"
    (List.length scenarios) (Scenario.scale_name !scale) !seed !model
    (if !native then " (+native smoke)" else "");
  Results.with_sink "service" (fun () ->
      let rows =
        List.map
          (fun sc ->
            let spotcheck = !lin && sc.Scenario.name = "flash-crowd" in
            let r = Service_run.run ~seed:!seed ~model:model_v ~check:!check ~spotcheck sc in
            Results.record
              (Service_results.of_run
                 ~label:(Printf.sprintf "%s-%s" sc.Scenario.name (Scenario.scale_name !scale))
                 r);
            let verdict =
              match (r.Service_run.violation, r.Service_run.linearizable) with
              | Some v, _ ->
                  failed := true;
                  "VIOLATION: " ^ v
              | None, Some false ->
                  failed := true;
                  "NOT-LINEARIZABLE"
              | None, Some true -> "ok+lin"
              | None, None -> if r.Service_run.checked then "ok" else "unchecked"
            in
            let p50, p99, p999 = p50_99_999 r.Service_run.sojourn in
            [
              sc.Scenario.name;
              r.Service_run.algorithm;
              string_of_int r.Service_run.ops_applied;
              Report.f3 r.Service_run.throughput_mops;
              p50;
              p99;
              p999;
              string_of_int r.Service_run.enq_waits;
              string_of_int r.Service_run.takeovers;
              verdict;
            ])
          scenarios
      in
      Report.table ~title:"service scenarios (simulator)"
        [
          "scenario"; "algo"; "applied"; "mops"; "p50ns"; "p99ns"; "p999ns"; "waits"; "takeovers";
          "verdict";
        ]
        rows;
      if !native then begin
        let rows =
          List.filter_map
            (fun sc ->
              if sc.Scenario.restarts then None
              else begin
                let r = Service_native.run ~seed:!seed sc in
                Results.record
                  (Service_results.of_native_run
                     ~label:
                       (Printf.sprintf "%s-%s-native" sc.Scenario.name
                          (Scenario.scale_name !scale))
                     r);
                let verdict =
                  match r.Service_native.violation with
                  | Some v ->
                      failed := true;
                      "VIOLATION: " ^ v
                  | None -> "ok"
                in
                Some
                  [
                    sc.Scenario.name;
                    r.Service_native.algorithm;
                    string_of_int r.Service_native.ops_applied;
                    Report.f3 r.Service_native.throughput_mops;
                    string_of_int r.Service_native.enq_waits;
                    verdict;
                  ]
              end)
            scenarios
        in
        if rows <> [] then
          Report.table ~title:"service scenarios (native domains, wall-clock)"
            [ "scenario"; "algo"; "applied"; "mops"; "waits"; "verdict" ]
            rows
      end);
  if !failed then begin
    print_endline "FAIL: service oracle violation";
    exit 1
  end;
  print_endline "all service scenarios clean"
