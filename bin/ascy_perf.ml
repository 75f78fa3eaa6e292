(* Flat-vs-MESI conformance check + simulator throughput baseline.

   Usage: ascy_perf [-out DIR] [-threshold X] [-soft] [NAME ...]

   For every registry algorithm (or just the NAMEs given), run the same
   bounded DPOR exploration — the 3-thread adversarial script of
   examples/schedule_fuzz — twice: once under the default MESI directory
   model and once under the O(1) flat uniform-cost model.  Controlled
   scheduling makes program behavior latency-independent, so the two
   sweeps must agree exactly: same schedule count, same decision count,
   same completeness, same verdict, per algorithm.  Any disagreement is
   a bug in a coherence model (or in the claim) and fails the run.

   The aggregate wall-clock of each sweep gives the repo's sim-steps/sec
   baseline; both, plus the MESI/flat time ratio, are written to
   DIR/PERF_SIM.json.  The two sweeps execute identical steps, so the
   ratio is what the directory model costs on top of exploration
   itself; it is a regression ceiling.  Exit 1 on any conformance
   mismatch, or when the MESI sweep takes more than the threshold
   (default 2.0) times as long as the flat one — soften the latter to a
   warning with -soft for noisy CI machines.  A bad command line is one
   line on stderr and exit status 2. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
module J = Ascy_util.Json

let spec name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2); (Sct.Insert, 3) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2); (Sct.Remove, 3) |];
        [| (Sct.Remove, 1); (Sct.Insert, 2) |];
      |]
    ()

type probe = {
  p_schedules : int;
  p_steps : int;
  p_complete : bool;
  p_violation : string option;
}

let sweep model entries =
  let t0 = Unix.gettimeofday () in
  let probes =
    List.map
      (fun (e : Registry.entry) ->
        let finding, report =
          Sct.explore ~mode:Explorer.Dpor ~model (spec e.Registry.name)
        in
        {
          p_schedules = report.Explorer.schedules;
          p_steps = report.Explorer.steps;
          p_complete = report.Explorer.complete;
          p_violation = Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding;
        })
      entries
  in
  (probes, Unix.gettimeofday () -. t0)

let model_json probes seconds =
  let schedules = List.fold_left (fun a p -> a + p.p_schedules) 0 probes in
  let steps = List.fold_left (fun a p -> a + p.p_steps) 0 probes in
  J.Obj
    [
      ("seconds", J.Float seconds);
      ("schedules", J.Int schedules);
      ("steps", J.Int steps);
      ("steps_per_sec", J.Float (if seconds > 0. then float_of_int steps /. seconds else 0.));
    ]

let bad_usage msg =
  Printf.eprintf "ascy_perf: %s\n" msg;
  exit 2

let () =
  let out_dir = ref "." in
  let threshold = ref 2.0 in
  let soft = ref false in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "-out" :: d :: rest ->
        out_dir := d;
        parse rest
    | "-threshold" :: x :: rest ->
        (match float_of_string_opt x with
        | Some t when t > 0. -> threshold := t
        | _ -> bad_usage ("-threshold must be a number > 0, got " ^ x));
        parse rest
    | [ ("-out" | "-threshold") as flag ] -> bad_usage (flag ^ " needs a value")
    | "-soft" :: rest ->
        soft := true;
        parse rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_endline "usage: ascy_perf [-out DIR] [-threshold X] [-soft] [NAME ...]";
        exit 0
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let entries =
    match !names with
    | [] -> Registry.all
    | names ->
        List.map
          (fun n -> try Registry.by_name n with Invalid_argument msg -> bad_usage msg)
          (List.rev names)
  in
  Printf.printf "model-conformance sweep: %d algorithms, bounded DPOR under mesi then flat\n\n"
    (List.length entries);
  Printf.printf "%-14s %9s %9s %9s %9s  %s\n" "name" "m.scheds" "f.scheds" "m.steps" "f.steps"
    "verdict";
  let mesi, mesi_s = sweep (Sim.model_of_name "mesi") entries in
  let flat, flat_s = sweep (Sim.model_of_name "flat") entries in
  let mismatches = ref 0 in
  let rows =
    List.map2
      (fun (e : Registry.entry) (m, f) ->
        let same =
          m.p_schedules = f.p_schedules && m.p_steps = f.p_steps
          && m.p_complete = f.p_complete && m.p_violation = f.p_violation
        in
        if not same then incr mismatches;
        Printf.printf "%-14s %9d %9d %9d %9d  %s\n%!" e.Registry.name m.p_schedules f.p_schedules
          m.p_steps f.p_steps
          (if same then "ok" else "MISMATCH");
        J.Obj
          [
            ("name", J.String e.Registry.name);
            ("schedules", J.Int m.p_schedules);
            ("steps", J.Int m.p_steps);
            ("complete", J.Bool m.p_complete);
            ( "violation",
              match m.p_violation with Some v -> J.String v | None -> J.Null );
            ("match", J.Bool same);
          ])
      entries
      (List.combine mesi flat)
  in
  let ratio = if flat_s > 0. then mesi_s /. flat_s else 0. in
  Printf.printf "\nmesi: %.2fs   flat: %.2fs   mesi/flat: %.2fx (ceiling %.2fx)\n" mesi_s flat_s
    ratio !threshold;
  let json =
    J.Obj
      [
        ("schema_version", J.Int 1);
        ("algorithms", J.Int (List.length entries));
        ( "bounds",
          let b = Explorer.default_bounds in
          J.Obj
            [
              ( "preemptions",
                match b.Explorer.preemptions with Some p -> J.Int p | None -> J.Null );
              ("delays", match b.Explorer.delays with Some d -> J.Int d | None -> J.Null);
              ("max_steps", J.Int b.Explorer.max_steps);
              ( "max_schedules",
                match b.Explorer.max_schedules with Some s -> J.Int s | None -> J.Null );
            ] );
        ( "models",
          J.Obj [ ("mesi", model_json mesi mesi_s); ("flat", model_json flat flat_s) ] );
        ("speedup_flat_over_mesi", J.Float ratio);
        ("threshold", J.Float !threshold);
        ("conformant", J.Bool (!mismatches = 0));
        ("per_algorithm", J.List rows);
      ]
  in
  let path = Filename.concat !out_dir "PERF_SIM.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~indent:1 json);
      output_char oc '\n');
  Printf.printf "[baseline -> %s]\n" path;
  if !mismatches > 0 then begin
    Printf.printf "%d conformance mismatch(es): flat and mesi disagree under controlled scheduling\n"
      !mismatches;
    exit 1
  end;
  if ratio > !threshold then
    if !soft then
      Printf.printf "warning: mesi/flat %.2fx above ceiling %.2fx (soft mode)\n" ratio !threshold
    else begin
      Printf.printf "FAIL: mesi/flat %.2fx above ceiling %.2fx\n" ratio !threshold;
      exit 1
    end;
  print_endline "flat and mesi agree on every schedule space"
