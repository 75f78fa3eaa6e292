(* Policy × domain × model exploration matrix over the algorithm registry.

   Usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST]
                       [-budget N] [-seed N] [-pct-depth N] [-swarm-seeds N]
                       [-model LIST] [-smoke] [-soft] [NAME ...]

   For every algorithm (the full registry, the -smoke subset, or the
   NAMEs given), run the 3-thread adversarial script
   (Ascy_harness.Sct_run.adversarial_spec) under every requested
   exploration policy (exhaustive DPOR, uniform random, PCT, swarm) at
   every requested domain count under every requested coherence model,
   and write one EXPLORE_matrix.json row per cell: schedules, steps,
   wall-clock, schedules/sec, the completeness flag, and the verdict.

   Controlled scheduling makes program behaviour independent of access
   latency and of how many domains share the work, so neither the
   domain count nor the model may move a result.  Cross-checks, all
   within one invocation:
   - for a fixed (algorithm, policy), every cell must report the same
     verdict and the same minimized counterexample (prefix and
     violation) — the canonical-finding contract of
     Ascy_sct.Par_explore, extended to models; a difference is a hard
     fail;
   - for a fixed (algorithm, policy, domains), every model must explore
     the same space: identical schedules, steps and completeness (a
     hard fail).  `-model mesi,flat -policy exhaustive` over the whole
     registry is the flat/MESI conformance sweep;
   - an exhaustive cell runs the one sequential explorer at every
     domain count, so its space must not move with the domain count
     either (a hard fail);
   - a randomized policy reporting a violation on an algorithm the
     exhaustive baseline proves clean (within bounds) is a hard fail;
     a randomized policy *missing* a violation exhaustive finds is the
     expected probabilistic shortfall and only warns;
   - with both mesi and flat listed, the summed seconds of the
     exhaustive cells at the lowest domain count give the mesi/flat
     ratio, what the directory model costs on top of exploration
     itself; above 2.0 it fails the run.
   -soft reports that timing gate as a warning only, for machines with
   noisy neighbours.

   Counterexamples are written once per (algorithm, policy), under the
   first listed model, as EXPLORE_CE_<algo>_<policy>.json, replayable
   with sct_replay like any other finding. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
module J = Ascy_util.Json
module Cli = Ascy_harness.Cli

(* A quick correct-algorithms cross-section: two per family plus both
   lock-free hash tables, small enough for CI yet exercising every
   structure shape.  Correctness matters: the strict randomized-vs-
   exhaustive verdict check assumes the exhaustive verdict is "clean". *)
let smoke_set =
  [
    "ll-lazy"; "ll-harris"; "ht-java"; "ht-clht-lf";
    "sl-herlihy"; "sl-fraser"; "bst-tk"; "bst-howley";
  ]

(* The mesi/flat ceiling: the directory model may at most double the
   wall-clock of exploring the same schedule space. *)
let model_ceiling = 2.0

type cell = {
  c_name : string;
  c_policy : Explorer.policy;
  c_domains : int;
  c_model : string;
  c_report : Explorer.report;
  c_seconds : float;
  c_finding : Sct.finding option;
}

let violation c = Option.map (fun (f : Sct.finding) -> f.Sct.violation) c.c_finding

let counterexample c =
  Option.map (fun (f : Sct.finding) -> (f.Sct.minimized, f.Sct.min_violation)) c.c_finding

let ce_file c =
  Printf.sprintf "EXPLORE_CE_%s_%s.json" c.c_name (Explorer.policy_name c.c_policy)

let () =
  let out_dir = ref "." in
  let domain_counts = ref [ 1 ] in
  let policy_names = ref Explorer.policy_names in
  let budget = ref 64 in
  let seed = ref 1 in
  let pct_depth = ref 3 in
  let swarm_seeds = ref 4 in
  let models = ref [ Ascy_mem.Models.flat ] in
  let soft = ref false in
  let smoke = ref false in
  let names =
    Cli.parse ~prog:"ascy_explore"
      ~usage:
        "usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST] [-budget N]\n\
        \                    [-seed N] [-pct-depth N] [-swarm-seeds N] [-model LIST]\n\
        \                    [-smoke] [-soft] [NAME ...]"
      [
        Cli.out_dir out_dir;
        Cli.value "-domains" (Cli.list (Cli.int ~min:1)) domain_counts
          "LIST  comma-separated worker-domain counts (default 1)";
        Cli.value "-policy" (Cli.list Cli.policy) policy_names
          ("LIST  comma-separated policies (default " ^ String.concat "," !policy_names ^ ")");
        Cli.value "-budget" (Cli.int ~min:1) budget
          "N  schedules per randomized policy (default 64)";
        Cli.value "-seed" Cli.int seed "N  randomized-policy seed (default 1)";
        Cli.value "-pct-depth" (Cli.int ~min:1) pct_depth "N  PCT bug depth (default 3)";
        Cli.value "-swarm-seeds" (Cli.int ~min:1) swarm_seeds
          "N  swarm seeds sharing the budget (default 4)";
        Cli.value "-model" (Cli.list Cli.model) models
          ("LIST  comma-separated coherence models: " ^ String.concat "|" Ascy_mem.Models.names
         ^ " (default flat)");
        ("-smoke", Arg.Set smoke, " explore the CI cross-section instead of the whole registry");
        ( "-soft",
          Arg.Set soft,
          Printf.sprintf " report a mesi/flat ratio above %.1f as a warning only" model_ceiling );
      ]
  in
  (* first occurrence wins: the first listed model writes the counterexamples *)
  let models =
    List.fold_left
      (fun acc m ->
        let n = Sim.model_name_of m in
        if List.mem_assoc n acc then acc else acc @ [ (n, m) ])
      [] !models
  in
  let entries = Cli.algorithms (if names = [] && !smoke then smoke_set else names) in
  let policies =
    List.map
      (Explorer.policy_of_name ~seed:!seed ~budget:!budget ~pct_depth:!pct_depth
         ~swarm_seeds:!swarm_seeds)
      !policy_names
  in
  let domain_counts = List.sort_uniq compare !domain_counts in
  Printf.printf
    "exploration matrix: %d algorithms x %d policies x domains {%s} x models {%s}, budget %d\n\n"
    (List.length entries) (List.length policies)
    (String.concat "," (List.map string_of_int domain_counts))
    (String.concat "," (List.map fst models))
    !budget;
  Printf.printf "%-14s %-10s %7s %-5s %9s %9s %8s %10s  %s\n" "name" "policy" "domains" "model"
    "schedules" "steps" "seconds" "scheds/s" "verdict";
  let hard_fails = ref [] in
  let warnings = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> hard_fails := s :: !hard_fails) fmt in
  let cells =
    List.concat_map
      (fun (e : Registry.entry) ->
        let spec = Sct.adversarial_spec e.Registry.name in
        List.concat_map
          (fun policy ->
            List.concat_map
              (fun domains ->
                List.map
                  (fun (model_name, model) ->
                    let t0 = Unix.gettimeofday () in
                    let finding, report =
                      Sct.explore ~mode:Explorer.Dpor ~model ~policy ~domains spec
                    in
                    let c =
                      {
                        c_name = e.Registry.name;
                        c_policy = policy;
                        c_domains = domains;
                        c_model = model_name;
                        c_report = report;
                        c_seconds = Unix.gettimeofday () -. t0;
                        c_finding = finding;
                      }
                    in
                    (* the (algorithm, policy) group's first cell writes the
                       counterexample; the others are compared in memory *)
                    if domains = List.hd domain_counts && model_name = fst (List.hd models) then
                      Option.iter
                        (fun (f : Sct.finding) ->
                          Sct.save_finding ~model
                            ~path:(Filename.concat !out_dir (ce_file c))
                            ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation spec)
                        finding;
                    Printf.printf "%-14s %-10s %7d %-5s %9d %9d %8.2f %10.0f  %s\n%!" c.c_name
                      (Explorer.policy_name policy) domains model_name report.Explorer.schedules
                      report.Explorer.steps c.c_seconds
                      (if c.c_seconds > 0. then
                         float_of_int report.Explorer.schedules /. c.c_seconds
                       else 0.)
                      (match violation c with Some v -> "FAIL: " ^ v | None -> "ok");
                    c)
                  models)
              domain_counts)
          policies)
      entries
  in
  let where c = Printf.sprintf "%d domains/%s" c.c_domains c.c_model in
  List.iter
    (fun c ->
      (* verdict and counterexample must not move along either axis *)
      let r = List.find (fun r -> r.c_name = c.c_name && r.c_policy = c.c_policy) cells in
      if violation c <> violation r then
        fail "%s/%s: verdict differs at %s (vs %s)" c.c_name (Explorer.policy_name c.c_policy)
          (where c) (where r)
      else if counterexample c <> counterexample r then
        fail "%s/%s: counterexample differs at %s (vs %s)" c.c_name
          (Explorer.policy_name c.c_policy) (where c) (where r);
      (* every model explores the same space, and so does every domain
         count of an exhaustive cell; a randomized finding at more than
         one domain cancels siblings, so its counts are timing-dependent *)
      let r =
        List.find
          (fun r ->
            r.c_name = c.c_name && r.c_policy = c.c_policy
            && (r.c_domains = c.c_domains || c.c_policy = Explorer.Exhaustive))
          cells
      in
      let space c =
        (c.c_report.Explorer.schedules, c.c_report.Explorer.steps, c.c_report.Explorer.complete)
      in
      if
        (c.c_domains = 1 || c.c_finding = None || c.c_policy = Explorer.Exhaustive)
        && space c <> space r
      then
        let s, n, k = space c and s', n', k' = space r in
        fail "%s/%s: %s explores %d schedules, %d steps, complete %b; %s %d, %d, %b" c.c_name
          (Explorer.policy_name c.c_policy) (where c) s n k (where r) s' n' k')
    cells;
  (* randomized policies vs the exhaustive baseline (first cell) *)
  List.iter
    (fun (e : Registry.entry) ->
      match
        List.find_opt
          (fun c -> c.c_name = e.Registry.name && c.c_policy = Explorer.Exhaustive)
          cells
      with
      | None -> ()
      | Some base ->
          List.iter
            (fun c ->
              if c.c_name = e.Registry.name && c.c_policy <> Explorer.Exhaustive then
                match (violation base, violation c) with
                | None, Some v ->
                    fail "%s: %s reports a violation exhaustive proved in-bounds clean: %s"
                      c.c_name (Explorer.policy_name c.c_policy) v
                | Some _, None ->
                    warnings :=
                      Printf.sprintf
                        "%s: %s missed the violation exhaustive finds (probabilistic shortfall)"
                        c.c_name (Explorer.policy_name c.c_policy)
                      :: !warnings
                | _ -> ())
            cells)
    entries;
  let exhaustive p = List.filter (fun c -> c.c_policy = Explorer.Exhaustive && p c) cells in
  let seconds = List.fold_left (fun a c -> a +. c.c_seconds) 0. in
  (* mesi/flat: the same exhaustive cells at the lowest domain count *)
  let model_seconds name =
    seconds (exhaustive (fun c -> c.c_model = name && c.c_domains = List.hd domain_counts))
  in
  let model_ratio =
    if List.mem_assoc "mesi" models && model_seconds "flat" > 0. then
      Some (model_seconds "mesi", model_seconds "flat")
    else None
  in
  let rows =
    List.map
      (fun c ->
        match
          Sct.report_json ~policy:c.c_policy ~domains:c.c_domains ?violation:(violation c)
            c.c_report
        with
        | J.Obj fields ->
            J.Obj
              (("name", J.String c.c_name) :: ("model", J.String c.c_model) :: fields
              @ [
                  ("seconds", J.Float c.c_seconds);
                  ( "schedules_per_sec",
                    J.Float
                      (if c.c_seconds > 0. then
                         float_of_int c.c_report.Explorer.schedules /. c.c_seconds
                       else 0.) );
                  ( "counterexample",
                    match c.c_finding with Some _ -> J.String (ce_file c) | None -> J.Null );
                ])
        | _ -> assert false)
      cells
  in
  let json =
    J.Obj
      [
        ("schema_version", J.Int 3);
        ("models", J.List (List.map (fun (n, _) -> J.String n) models));
        ("budget", J.Int !budget);
        ("seed", J.Int !seed);
        ("algorithms", J.Int (List.length entries));
        ("policies", J.List (List.map (fun p -> J.String (Explorer.policy_name p)) policies));
        ("domain_counts", J.List (List.map (fun d -> J.Int d) domain_counts));
        ( "model_ratio",
          match model_ratio with
          | Some (m, f) ->
              J.Obj [ ("mesi_over_flat", J.Float (m /. f)); ("ceiling", J.Float model_ceiling) ]
          | None -> J.Null );
        ("hard_fails", J.List (List.map (fun s -> J.String s) (List.rev !hard_fails)));
        ("warnings", J.List (List.map (fun s -> J.String s) (List.rev !warnings)));
        ("matrix", J.List rows);
      ]
  in
  let path = Filename.concat !out_dir "EXPLORE_matrix.json" in
  J.to_file path json;
  Printf.printf "\n[matrix -> %s]\n" path;
  List.iter (Printf.printf "warning: %s\n") (List.rev !warnings);
  Option.iter
    (fun (m, f) ->
      Printf.printf "exhaustive mesi: %.2fs   flat: %.2fs   mesi/flat: %.2fx (ceiling %.2fx)\n" m
        f (m /. f) model_ceiling;
      if m /. f > model_ceiling then begin
        let msg = Printf.sprintf "mesi/flat %.2fx above ceiling %.2fx" (m /. f) model_ceiling in
        if !soft then Printf.printf "warning: %s (soft mode)\n" msg else fail "%s" msg
      end)
    model_ratio;
  match List.rev !hard_fails with
  | [] -> print_endline "matrix consistent: verdicts and counterexamples agree across the board"
  | fails ->
      List.iter (Printf.printf "FAIL: %s\n") fails;
      exit 1
