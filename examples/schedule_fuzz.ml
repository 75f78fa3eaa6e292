(* Systematic schedule exploration: the simulator as a bounded model
   checker.

   This example used to fuzz 200 random seeds and hope an interleaving
   broke the asynchronized list.  It now drives the SCT engine
   (Ascy_sct + Ascy_harness.Sct_run): a DFS over the simulator's
   scheduling decisions, bounded by preemptions, pruned with
   DPOR-style backtrack points and sleep sets, with every explored
   schedule checked for crashes, data races (the happens-before
   detector of Ascy_analysis.Race), structural damage, set conservation
   and linearizability.

   The asynchronized (sequential) list is deliberately unsafe when
   shared — that is the paper's whole point.  SCT finds a violating
   interleaving deterministically, minimizes it, serializes it to
   JSON, and replays it bit-for-bit.  The lazy list survives the same
   bounds exhaustively.

   Run with: dune exec examples/schedule_fuzz.exe
   Optionally pick an exploration policy and worker-domain count:
     schedule_fuzz.exe [-policy exhaustive|random|pct|swarm]
                       [-domains N] [-budget N] [-seed N] [-pct-depth N]
   Randomized policies sample the schedule space instead of enumerating
   it (their reports are always incomplete); every policy's findings
   flow through the same minimize/serialize/replay pipeline. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler
module Cli = Ascy_harness.Cli

let bounds = Explorer.default_bounds

let file = "SCT_counterexample_ll-async.json"

let policy = ref Explorer.Exhaustive
let domains = ref 1

let () =
  let budget = ref 64 in
  let seed = ref 1 in
  let pct_depth = ref 3 in
  let pname = ref "exhaustive" in
  match
    Cli.parse ~prog:"schedule_fuzz"
      ~usage:
        "usage: schedule_fuzz [-policy exhaustive|random|pct|swarm] [-domains N] [-budget N]\n\
        \                     [-seed N] [-pct-depth N]"
      [
        Cli.value "-policy" Cli.policy pname "POLICY  exploration policy (default exhaustive)";
        Cli.value "-domains" (Cli.int ~min:1) domains "N  worker domains (default 1)";
        Cli.value "-budget" (Cli.int ~min:1) budget
          "N  schedules per randomized policy (default 64)";
        Cli.value "-seed" Cli.int seed "N  randomized-policy seed (default 1)";
        Cli.value "-pct-depth" (Cli.int ~min:1) pct_depth "N  PCT bug depth (default 3)";
      ]
  with
  | [] ->
      policy :=
        Explorer.policy_of_name ~seed:!seed ~budget:!budget ~pct_depth:!pct_depth ~swarm_seeds:4
          !pname
  | a :: _ -> Cli.fail "unexpected argument %s" a

let hunt name =
  (match !policy with
  | Explorer.Exhaustive ->
      Printf.printf "%-12s exploring (DPOR, <=%d preemptions) ...\n%!" name
        (match bounds.Explorer.preemptions with Some p -> p | None -> max_int)
  | p ->
      Printf.printf "%-12s exploring (policy %s, %d domain(s)) ...\n%!" name
        (Explorer.policy_name p) !domains);
  let finding, report =
    Sct.explore ~mode:Explorer.Dpor ~bounds ~races:true ~policy:!policy ~domains:!domains
      (Sct.adversarial_spec name)
  in
  Printf.printf "%-12s %d schedules, %d decisions%s\n" name report.Explorer.schedules
    report.Explorer.steps
    (if report.Explorer.complete then " (schedule space exhausted)"
     else
       match !policy with
       | Explorer.Exhaustive -> ""  (* historical output, byte-stable *)
       | _ -> " (incomplete: sampled, not exhausted)");
  (finding, report)

let () =
  print_endline "Hunting the asynchronized list (expected: a violation, fast):";
  (match hunt "ll-async" with
  | Some f, _ ->
      Printf.printf "ll-async     VIOLATION: %s\n" f.Sct.violation;
      Printf.printf "ll-async     schedule: %d decisions, minimized to %d (%d context switches)\n"
        (Array.length f.Sct.schedule) (Array.length f.Sct.minimized)
        (max 0 (List.length (Scheduler.to_chunks f.Sct.minimized) - 1));
      Sct.save_finding ~races:true ~path:file ~prefix:f.Sct.minimized
        ~violation:f.Sct.min_violation (Sct.adversarial_spec "ll-async")
  | None, _ ->
      prerr_endline "FATAL: SCT failed to break the asynchronized list";
      exit 1);
  Printf.printf "\nReplaying %s twice (determinism check):\n" file;
  let _, _, expected, results = Sct.replay_file ~times:2 file in
  List.iteri
    (fun i r ->
      Printf.printf "replay %d: %s\n" (i + 1)
        (match r with Some v -> v | None -> "no violation (!)"))
    results;
  (match (expected, results) with
  | Some v, [ Some a; Some b ] when a = v && b = v ->
      print_endline "counterexample reproduces bit-for-bit"
  | _ ->
      prerr_endline "FATAL: counterexample did not reproduce deterministically";
      exit 1);
  print_endline "\nExploring the lazy list under the same bounds (expected: clean):";
  (match hunt "ll-lazy" with
  | None, report when report.Explorer.complete ->
      print_endline "ll-lazy      no violation in the entire bounded schedule space"
  | None, _ -> print_endline "ll-lazy      no violation (budget reached before exhaustion)"
  | Some f, _ ->
      Printf.printf "FATAL: lazy list broken?! %s\n" f.Sct.violation;
      exit 1);
  print_endline "\nThis is how the test suite hunts interleaving bugs: bounded";
  print_endline "DPOR exploration instead of seed lotteries, and any failure";
  print_endline "ships as a schedule file that replays deterministically.";
  Sys.remove file
