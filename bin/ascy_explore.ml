(* Policy × domain exploration matrix over the algorithm registry.

   Usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST]
                       [-budget N] [-seed N] [-pct-depth N] [-swarm-seeds N]
                       [-model NAME] [-smoke] [-threshold X] [-soft] [NAME ...]

   For every algorithm (the full registry, the -smoke subset, or the
   NAMEs given), run the 3-thread adversarial script
   (Ascy_harness.Sct_run.adversarial_spec) under every requested
   exploration policy (exhaustive DPOR, uniform random, PCT, swarm) at
   every requested domain count, and write one EXPLORE_matrix.json row
   per cell: schedules, steps, wall-clock, schedules/sec, the
   completeness flag, and the verdict.

   Cross-checks, all within one invocation:
   - for a fixed (algorithm, policy), verdicts must be identical at
     every domain count, and any counterexample file must be
     byte-identical across domain counts (the canonical-finding
     contract of Ascy_sct.Par_explore) — a difference is a hard fail;
   - a randomized policy reporting a violation on an algorithm the
     exhaustive baseline proves clean (within bounds) is a hard fail;
     a randomized policy *missing* a violation exhaustive finds is the
     expected probabilistic shortfall and only warns;
   - the exhaustive schedules/sec at the highest domain count vs one
     domain gives the parallel speedup; below -threshold (default 2.0)
     it fails the run — soften to a warning with -soft on machines
     without spare cores (this container reports nproc=1).

   Counterexamples are written as EXPLORE_CE_<algo>_<policy>.json,
   replayable with sct_replay like any other finding. *)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

type cell = {
  c_name : string;
  c_policy : Explorer.policy;
  c_domains : int;
  c_report : Explorer.report;
  c_seconds : float;
  c_violation : string option;
  c_ce : string option;  (** counterexample file path, if a finding was saved *)
}

let () =
  let out_dir = ref "." in
  let domain_counts = ref [ 1 ] in
  let policy_names = ref Explorer.policy_names in
  let budget = ref 64 in
  let seed = ref 1 in
  let pct_depth = ref 3 in
  let swarm_seeds = ref 4 in
  let model = ref Ascy_mem.Models.flat in
  let threshold = ref 2.0 in
  let soft = ref false in
  let smoke = ref false in
  let names =
    Cli.parse ~prog:"ascy_explore"
      ~usage:
        "usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST] [-budget N]\n\
        \                    [-seed N] [-pct-depth N] [-swarm-seeds N] [-model NAME]\n\
        \                    [-smoke] [-threshold X] [-soft] [NAME ...]"
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
        Cli.model_flag model;
        ("-smoke", Arg.Set smoke, " explore the CI cross-section instead of the whole registry");
        Cli.value "-threshold" Cli.pos_float threshold
          "X  minimum exhaustive speedup at the highest domain count (default 2.0)";
        ("-soft", Arg.Set soft, " report a speedup below -threshold as a warning only");
      ]
  in
  let model_name = Sim.model_name_of !model in
  let model = !model in
  let entries = Cli.algorithms (if names = [] && !smoke then smoke_set else names) in
  let policies =
    List.map
      (Explorer.policy_of_name ~seed:!seed ~budget:!budget ~pct_depth:!pct_depth
         ~swarm_seeds:!swarm_seeds)
      !policy_names
  in
  let domain_counts = List.sort_uniq compare !domain_counts in
  Printf.printf
    "exploration matrix: %d algorithms x %d policies x domains {%s}, model %s, budget %d\n\n"
    (List.length entries) (List.length policies)
    (String.concat "," (List.map string_of_int domain_counts))
    model_name !budget;
  Printf.printf "%-14s %-10s %7s %9s %9s %8s %10s  %s\n" "name" "policy" "domains"
    "schedules" "steps" "seconds" "scheds/s" "verdict";
  let hard_fails = ref [] in
  let warnings = ref [] in
  let cells =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.concat_map
          (fun policy ->
            List.map
              (fun domains ->
                let t0 = Unix.gettimeofday () in
                let finding, report =
                  Sct.explore ~mode:Explorer.Dpor ~model ~policy ~domains
                    (Sct.adversarial_spec e.Registry.name)
                in
                let seconds = Unix.gettimeofday () -. t0 in
                let violation =
                  Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding
                in
                let ce =
                  match finding with
                  | None -> None
                  | Some f ->
                      (* first domain count writes the canonical file;
                         later ones write beside it and must match bytes *)
                      let base =
                        Printf.sprintf "EXPLORE_CE_%s_%s.json" e.Registry.name
                          (Explorer.policy_name policy)
                      in
                      let canonical = Filename.concat !out_dir base in
                      let path =
                        if Sys.file_exists canonical then canonical ^ ".check" else canonical
                      in
                      Sct.save_finding ~model ~path ~prefix:f.Sct.minimized
                        ~violation:f.Sct.min_violation (Sct.adversarial_spec e.Registry.name);
                      if path <> canonical then begin
                        if read_file path <> read_file canonical then
                          hard_fails :=
                            Printf.sprintf
                              "%s/%s: counterexample differs at %d domains (vs %s)"
                              e.Registry.name (Explorer.policy_name policy) domains base
                            :: !hard_fails;
                        Sys.remove path
                      end;
                      Some base
                in
                Printf.printf "%-14s %-10s %7d %9d %9d %8.2f %10.0f  %s\n%!" e.Registry.name
                  (Explorer.policy_name policy) domains report.Explorer.schedules
                  report.Explorer.steps seconds
                  (if seconds > 0. then float_of_int report.Explorer.schedules /. seconds
                   else 0.)
                  (match violation with Some v -> "FAIL: " ^ v | None -> "ok");
                {
                  c_name = e.Registry.name;
                  c_policy = policy;
                  c_domains = domains;
                  c_report = report;
                  c_seconds = seconds;
                  c_violation = violation;
                  c_ce = ce;
                })
              domain_counts)
          policies)
      entries
  in
  (* verdicts must agree across domain counts for a fixed (algo, policy) *)
  List.iter
    (fun c ->
      List.iter
        (fun c' ->
          if
            c.c_name = c'.c_name && c.c_policy = c'.c_policy
            && c.c_domains < c'.c_domains
            && c.c_violation <> c'.c_violation
          then
            hard_fails :=
              Printf.sprintf "%s/%s: verdict differs between %d and %d domains" c.c_name
                (Explorer.policy_name c.c_policy) c.c_domains c'.c_domains
              :: !hard_fails)
        cells)
    cells;
  (* randomized policies vs the exhaustive baseline (first domain count) *)
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
                match (base.c_violation, c.c_violation) with
                | None, Some v ->
                    hard_fails :=
                      Printf.sprintf
                        "%s: %s reports a violation exhaustive proved in-bounds clean: %s"
                        c.c_name (Explorer.policy_name c.c_policy) v
                      :: !hard_fails
                | Some _, None ->
                    warnings :=
                      Printf.sprintf
                        "%s: %s missed the violation exhaustive finds (probabilistic shortfall)"
                        c.c_name (Explorer.policy_name c.c_policy)
                      :: !warnings
                | _ -> ())
            cells)
    entries;
  (* exhaustive parallel speedup: schedules/sec at max domains vs 1 *)
  let rate domains =
    let picked =
      List.filter
        (fun c -> c.c_policy = Explorer.Exhaustive && c.c_domains = domains)
        cells
    in
    let scheds =
      List.fold_left (fun a c -> a + c.c_report.Explorer.schedules) 0 picked
    in
    let secs = List.fold_left (fun a c -> a +. c.c_seconds) 0. picked in
    if secs > 0. && picked <> [] then Some (float_of_int scheds /. secs) else None
  in
  let speedup =
    match (List.mem Explorer.Exhaustive policies, domain_counts) with
    | true, _ :: _ :: _ -> (
        let dmax = List.fold_left max 1 domain_counts in
        match (rate 1, rate dmax) with
        | Some r1, Some rn when List.mem 1 domain_counts -> Some (dmax, rn /. r1)
        | _ -> None)
    | _ -> None
  in
  let rows =
    List.map
      (fun c ->
        match
          Sct.report_json ~policy:c.c_policy ~domains:c.c_domains ?violation:c.c_violation
            c.c_report
        with
        | J.Obj fields ->
            J.Obj
              (("name", J.String c.c_name) :: fields
              @ [
                  ("seconds", J.Float c.c_seconds);
                  ( "schedules_per_sec",
                    J.Float
                      (if c.c_seconds > 0. then
                         float_of_int c.c_report.Explorer.schedules /. c.c_seconds
                       else 0.) );
                  ( "counterexample",
                    match c.c_ce with Some p -> J.String p | None -> J.Null );
                ])
        | _ -> assert false)
      cells
  in
  let json =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("model", J.String model_name);
        ("budget", J.Int !budget);
        ("seed", J.Int !seed);
        ("algorithms", J.Int (List.length entries));
        ("policies", J.List (List.map (fun p -> J.String (Explorer.policy_name p)) policies));
        ("domain_counts", J.List (List.map (fun d -> J.Int d) domain_counts));
        ( "speedup",
          match speedup with
          | Some (dmax, s) ->
              J.Obj [ ("domains", J.Int dmax); ("schedules_per_sec_ratio", J.Float s) ]
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
  (match speedup with
  | Some (dmax, s) ->
      Printf.printf "exhaustive schedules/sec at %d domains: %.2fx of 1 domain (threshold %.2fx)\n"
        dmax s !threshold;
      if s < !threshold then
        if !soft then
          Printf.printf "warning: speedup %.2fx below threshold %.2fx (soft mode)\n" s !threshold
        else begin
          Printf.printf "FAIL: speedup %.2fx below threshold %.2fx\n" s !threshold;
          hard_fails := Printf.sprintf "speedup %.2fx below threshold %.2fx" s !threshold
                        :: !hard_fails
        end
  | None -> ());
  match List.rev !hard_fails with
  | [] -> print_endline "matrix consistent: verdicts and counterexamples agree across the board"
  | fails ->
      List.iter (Printf.printf "FAIL: %s\n") fails;
      exit 1
