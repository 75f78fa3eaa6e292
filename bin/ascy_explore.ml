(* Policy × domain × model verification matrix over the algorithm
   registry, and the replayer of its counterexamples.

   Usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST]
                       [-budget N] [-seed N] [-pct-depth N] [-swarm-seeds N]
                       [-model LIST] [-smoke] [-soft] [NAME ... | FILE.json ...]

   For every algorithm (the full registry, the -smoke subset, or the
   NAMEs given), run every requested policy at every requested domain
   count under every requested coherence model, and write one
   EXPLORE_matrix.json row per cell.  An exploration policy (exhaustive
   DPOR, uniform random, PCT, swarm) runs the 3-thread adversarial
   script (Ascy_harness.Sct_run.adversarial_spec): schedules, steps,
   wall-clock, schedules/sec, the completeness flag, and the verdict.
   The chaos policy (Ascy_harness.Fault_run.classify) crash-stops a
   victim after each of its commits, then stalls it, and checks the
   observed progress class against the declared Table-1 one: declared,
   observed, crash_probes, stall_ok; a mismatch is a hard fail.

   Controlled scheduling makes program behaviour independent of access
   latency and of how many domains share the work, so neither the
   domain count nor the model may move a result.  Cross-checks, all
   within one invocation:
   - for a fixed (algorithm, policy), every cell must report the same
     verdict and the same minimized counterexample (prefix and
     violation) or chaos classification — the canonical-finding
     contract of Ascy_sct.Par_explore, extended to models; a difference
     is a hard fail;
   - for a fixed (algorithm, exploration policy, domains), every model
     must explore the same space: identical schedules, steps and
     completeness (a hard fail).  `-model mesi,flat -policy exhaustive`
     over the whole registry is the flat/MESI conformance sweep;
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
   first listed model and domain count, as
   EXPLORE_CE_<algo>_<policy>.json, and replayed at once: one that does
   not reproduce is a hard fail.  FILE.json arguments replay such files
   (or any other Sct_run.save_finding wrote) instead, twice each, under
   the coherence model they record; exit status 1 when one does not
   reproduce or cannot be read. *)

module Sct = Ascy_harness.Sct_run
module Fault = Ascy_harness.Fault_run
module Explorer = Ascy_sct.Explorer
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
module J = Ascy_util.Json
module Cli = Ascy_harness.Cli
module Ascy = Ascy_core.Ascy

(* A quick correct-algorithms cross-section: one lock-based and one
   lock-free design per family, small enough for CI yet exercising every
   structure shape and both declared progress classes.  Correctness
   matters: the strict randomized-vs-exhaustive verdict check assumes
   the exhaustive verdict is "clean". *)
let smoke_set =
  [
    "ll-lazy"; "ll-harris"; "ht-java"; "ht-clht-lf";
    "sl-herlihy"; "sl-fraser"; "bst-tk"; "bst-howley";
  ]

(* The mesi/flat ceiling: the directory model may at most double the
   wall-clock of exploring the same schedule space. *)
let model_ceiling = 2.0

(* A column of the matrix: an exploration policy, or the chaos sweep *)
type policy = Explore of Explorer.policy | Chaos

let policy_name = function Explore p -> Explorer.policy_name p | Chaos -> "chaos"

type result = Explored of Explorer.report * Sct.finding option | Classified of Fault.report

type cell = {
  c_name : string;
  c_policy : policy;
  c_domains : int;
  c_model : string;
  c_result : result;
  c_seconds : float;
}

let progress = Ascy.progress_to_string

(* the verdict: what exploration found, or what a chaos mismatch showed *)
let violation c =
  match c.c_result with
  | Explored (_, finding) -> Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding
  | Classified r when Fault.matches r -> None
  | Classified r -> (
      match Fault.finding r with
      | Some f -> Some f.Fault.violation
      | None ->
          Some
            (Printf.sprintf "no crash placement wedged the survivors (%d probes)"
               r.Fault.crash_probes))

(* what else must not move along the domain and model axes *)
let outcome c =
  match c.c_result with
  | Explored (_, finding) ->
      `Counterexample
        (Option.map (fun (f : Sct.finding) -> (f.Sct.minimized, f.Sct.min_violation)) finding)
  | Classified r ->
      `Classification (r.Fault.observed, r.Fault.crash_probes, r.Fault.stall_ok, Fault.finding r)

let ce_file c = Printf.sprintf "EXPLORE_CE_%s_%s.json" c.c_name (policy_name c.c_policy)

(* the cell's counterexample, as a writer of its file under a model *)
let counterexample c =
  match c.c_result with
  | Explored (_, finding) ->
      Option.map
        (fun (f : Sct.finding) model path ->
          Sct.save_finding ~model ~path ~prefix:f.Sct.minimized ~violation:f.Sct.min_violation
            (Sct.adversarial_spec c.c_name))
        finding
  | Classified r ->
      Option.map (fun f model path -> Fault.save_finding ~model ~path c.c_name f) (Fault.finding r)

let run_cell (e : Registry.entry) policy domains (model_name, model) =
  let spec = Sct.adversarial_spec e.Registry.name in
  let t0 = Unix.gettimeofday () in
  let result =
    match policy with
    | Explore policy ->
        let finding, report = Sct.explore ~mode:Explorer.Dpor ~model ~policy ~domains spec in
        Explored (report, finding)
    | Chaos -> Classified (Fault.classify ~model e)
  in
  let c_seconds = Unix.gettimeofday () -. t0 in
  let c =
    {
      c_name = e.Registry.name;
      c_policy = policy;
      c_domains = domains;
      c_model = model_name;
      c_result = result;
      c_seconds;
    }
  in
  (match result with
  | Explored (report, _) ->
      Printf.printf "%-14s %-10s %7d %-5s %9d %9d %8.2f %10.0f  %s\n%!" c.c_name
        (policy_name policy) domains model_name report.Explorer.schedules report.Explorer.steps
        c_seconds
        (if c_seconds > 0. then float_of_int report.Explorer.schedules /. c_seconds else 0.)
        (match violation c with Some v -> "FAIL: " ^ v | None -> "ok")
  | Classified r ->
      Printf.printf "%-14s %-10s %7d %-5s declared %s, observed %s, %d probes, stall %s  %s\n%!"
        c.c_name (policy_name policy) domains model_name (progress e.Registry.progress)
        (progress r.Fault.observed) r.Fault.crash_probes
        (if r.Fault.stall_ok then "ok" else "FAIL")
        (if Fault.matches r then "ok" else "MISMATCH"));
  c

(* Replay one counterexample file; true when it reproduces. *)
let replay path =
  match
    let _, _, meta = Ascy_sct.Replay.load path in
    (Ascy_harness.Engine.model_of_meta meta, Sct.replay_file path)
  with
  | exception Ascy_sct.Replay.Bad_schedule msg ->
      Printf.eprintf "ascy_explore: bad schedule file %s: %s\n%!" path msg;
      false
  | model, (spec, faults, expected, results) ->
      Printf.printf "file %s\n" path;
      (* replays re-arm the recorded coherence model; say so when it is
         not the default *)
      let mn = Sim.model_name_of model in
      if mn <> Sim.model_name_of Sim.default_model then
        Printf.printf "coherence model: %s (recorded in replay file)\n" mn;
      Printf.printf "algorithm %s on %s, %d threads, %d scripted ops\n" spec.Sct.name
        spec.Sct.platform.Ascy_platform.Platform.name spec.Sct.nthreads
        (Array.fold_left (fun acc ops -> acc + Array.length ops) 0 spec.Sct.script);
      if faults <> [] then Printf.printf "fault plan: %s\n" (Fault.plan_str faults);
      Printf.printf "recorded violation: %s\n" (Option.value expected ~default:"(none stored)");
      List.iteri
        (fun i r ->
          Printf.printf "replay %d: %s\n" (i + 1) (Option.value r ~default:"no violation (!)"))
        results;
      let ok = Sct.reproduces ~expected results in
      Printf.printf "verdict: %s\n\n%!"
        (if ok then "violation reproduces bit-for-bit" else "NOT reproducible");
      ok

let () =
  let out_dir = ref "." in
  let domain_counts = ref [ 1 ] in
  let policy_names = ref (Explorer.policy_names @ [ "chaos" ]) in
  let budget = ref 64 in
  let seed = ref 1 in
  let pct_depth = ref 3 in
  let swarm_seeds = ref 4 in
  let models = ref [ Ascy_mem.Models.flat ] in
  let soft = ref false in
  let smoke = ref false in
  let files, names =
    List.partition
      (fun a -> Filename.check_suffix a ".json")
      (Cli.parse ~prog:"ascy_explore"
         ~usage:
           "usage: ascy_explore [-out DIR] [-domains LIST] [-policy LIST] [-budget N]\n\
           \                    [-seed N] [-pct-depth N] [-swarm-seeds N] [-model LIST]\n\
           \                    [-smoke] [-soft] [NAME ... | FILE.json ...]"
         [
           Cli.out_dir out_dir;
           Cli.value "-domains" (Cli.list (Cli.int ~min:1)) domain_counts
             "LIST  comma-separated worker-domain counts (default 1)";
           Cli.value "-policy"
             (Cli.list (Cli.one_of (List.map (fun p -> (p, p)) !policy_names)))
             policy_names
             ("LIST  comma-separated policies (default " ^ String.concat "," !policy_names ^ ")");
           Cli.value "-budget" (Cli.int ~min:1) budget
             "N  schedules per randomized policy (default 64)";
           Cli.value "-seed" Cli.int seed "N  randomized-policy seed (default 1)";
           Cli.value "-pct-depth" (Cli.int ~min:1) pct_depth "N  PCT bug depth (default 3)";
           Cli.value "-swarm-seeds" (Cli.int ~min:1) swarm_seeds
             "N  swarm seeds sharing the budget (default 4)";
           Cli.value "-model" (Cli.list Cli.model) models
             ("LIST  comma-separated coherence models: "
             ^ String.concat "|" Ascy_mem.Models.names
             ^ " (default flat)");
           ("-smoke", Arg.Set smoke, " run the CI cross-section instead of the whole registry");
           ( "-soft",
             Arg.Set soft,
             Printf.sprintf " report a mesi/flat ratio above %.1f as a warning only" model_ceiling
           );
         ])
  in
  if files <> [] then begin
    if names <> [] then Cli.fail "give algorithm names or replay files, not both";
    (* every file is replayed, whichever fail *)
    exit (if List.fold_left (fun ok f -> replay f && ok) true files then 0 else 1)
  end;
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
      (function
        | "chaos" -> Chaos
        | p ->
            Explore
              (Explorer.policy_of_name ~seed:!seed ~budget:!budget ~pct_depth:!pct_depth
                 ~swarm_seeds:!swarm_seeds p))
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
        List.concat_map
          (fun policy ->
            List.concat_map
              (fun domains ->
                List.map
                  (fun (model_name, model) ->
                    let c = run_cell e policy domains (model_name, model) in
                    (* the (algorithm, policy) group's first cell reports a
                       chaos mismatch and writes the counterexample, which
                       must replay; the others are compared in memory *)
                    if domains = List.hd domain_counts && model_name = fst (List.hd models)
                    then begin
                      (match (c.c_result, violation c) with
                      | Classified r, Some v ->
                          fail "%s/chaos: declared %s, observed %s: %s%s" c.c_name
                            (progress e.Registry.progress) (progress r.Fault.observed) v
                            (match Fault.finding r with
                            | Some f -> " under " ^ Fault.plan_str f.Fault.plan
                            | None -> "")
                      | _ -> ());
                      Option.iter
                        (fun write ->
                          let path = Filename.concat !out_dir (ce_file c) in
                          write model path;
                          let _, _, expected, results = Sct.replay_file path in
                          if not (Sct.reproduces ~expected results) then
                            fail "%s does not reproduce" path)
                        (counterexample c)
                    end;
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
        fail "%s/%s: verdict differs at %s (vs %s)" c.c_name (policy_name c.c_policy) (where c)
          (where r)
      else if outcome c <> outcome r then
        fail "%s/%s: %s differs at %s (vs %s)" c.c_name (policy_name c.c_policy)
          (match c.c_result with Explored _ -> "counterexample" | Classified _ -> "classification")
          (where c) (where r);
      (* every model explores the same space, and so does every domain
         count of an exhaustive cell; a randomized finding at more than
         one domain cancels siblings, so its counts are timing-dependent *)
      let r =
        List.find
          (fun r ->
            r.c_name = c.c_name && r.c_policy = c.c_policy
            && (r.c_domains = c.c_domains || c.c_policy = Explore Explorer.Exhaustive))
          cells
      in
      match (c.c_result, r.c_result) with
      | Explored (report, finding), Explored (report', _)
        when c.c_domains = 1 || finding = None || c.c_policy = Explore Explorer.Exhaustive ->
          let space (r : Explorer.report) =
            (r.Explorer.schedules, r.Explorer.steps, r.Explorer.complete)
          in
          if space report <> space report' then
            let s, n, k = space report and s', n', k' = space report' in
            fail "%s/%s: %s explores %d schedules, %d steps, complete %b; %s %d, %d, %b" c.c_name
              (policy_name c.c_policy) (where c) s n k (where r) s' n' k'
      | _ -> ())
    cells;
  (* randomized policies vs the exhaustive baseline (first cell) *)
  List.iter
    (fun c ->
      let base =
        List.find_opt
          (fun b -> b.c_name = c.c_name && b.c_policy = Explore Explorer.Exhaustive)
          cells
      in
      match (c.c_policy, base) with
      | Explore p, Some base when p <> Explorer.Exhaustive -> (
          match (violation base, violation c) with
          | None, Some v ->
              fail "%s: %s reports a violation exhaustive proved in-bounds clean: %s" c.c_name
                (Explorer.policy_name p) v
          | Some _, None ->
              warnings :=
                Printf.sprintf
                  "%s: %s missed the violation exhaustive finds (probabilistic shortfall)"
                  c.c_name (Explorer.policy_name p)
                :: !warnings
          | _ -> ())
      | _ -> ())
    cells;
  let exhaustive p = List.filter (fun c -> c.c_policy = Explore Explorer.Exhaustive && p c) cells in
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
        let fields =
          match (c.c_policy, c.c_result) with
          | Explore policy, Explored (report, _) -> (
              match
                Sct.report_json ~policy ~domains:c.c_domains ?violation:(violation c) report
              with
              | J.Obj fields ->
                  fields
                  @ [
                      ("seconds", J.Float c.c_seconds);
                      ( "schedules_per_sec",
                        J.Float
                          (if c.c_seconds > 0. then
                             float_of_int report.Explorer.schedules /. c.c_seconds
                           else 0.) );
                    ]
              | _ -> assert false)
          | _, Classified r ->
              [
                ("policy", J.String "chaos");
                ("domains", J.Int c.c_domains);
                ("declared", J.String (progress r.Fault.entry.Registry.progress));
                ("observed", J.String (progress r.Fault.observed));
                ("crash_probes", J.Int r.Fault.crash_probes);
                ("stall_ok", J.Bool r.Fault.stall_ok);
                ("violation", match violation c with Some v -> J.String v | None -> J.Null);
                ("seconds", J.Float c.c_seconds);
              ]
          | Chaos, Explored _ -> assert false
        in
        J.Obj
          (("name", J.String c.c_name) :: ("model", J.String c.c_model) :: fields
          @ [
              ( "counterexample",
                if counterexample c <> None then J.String (ce_file c) else J.Null );
            ]))
      cells
  in
  let json =
    J.Obj
      [
        ("schema_version", J.Int 4);
        ("models", J.List (List.map (fun (n, _) -> J.String n) models));
        ("budget", J.Int !budget);
        ("seed", J.Int !seed);
        ("algorithms", J.Int (List.length entries));
        ("policies", J.List (List.map (fun p -> J.String (policy_name p)) policies));
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
