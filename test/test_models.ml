(* Cross-model equivalence and golden pins for the pluggable coherence
   layer (Ascy_mem.Sim.model / Cohmodel).

   The load-bearing claim: controlled schedulers make program behavior
   latency-independent, so everything *functional* — SCT schedule
   counts, oracle verdicts, minimized counterexamples — must be
   identical under the MESI directory model, the O(1) flat model and
   the Opteron-style MOESI variant.  Only *costs* (makespans, miss
   classes, energy) may differ, and they must actually differ, or a
   "model" is silently aliasing another.  The MESI default additionally
   pins the pre-refactor golden numbers bit-for-bit, and both directory
   instances (mesi, moesi) are pinned bit-for-bit on three workloads. *)

module Sim = Ascy_mem.Sim
module Mem = Ascy_mem.Sim.Mem
module P = Ascy_platform.Platform
module Sct = Ascy_harness.Sct_run
module Engine = Ascy_harness.Engine
module Explorer = Ascy_sct.Explorer

let mesi = Sim.model_of_name "mesi"
let flat = Sim.model_of_name "flat"
let moesi = Sim.model_of_name "moesi"

(* the 3-thread adversarial script of examples/schedule_fuzz — the
   workload behind the repo's pinned 2099-schedule ll-lazy space *)
let spec name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2); (Sct.Insert, 3) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2); (Sct.Remove, 3) |];
        [| (Sct.Remove, 1); (Sct.Insert, 2) |];
      |]
    ()

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string)) "registry names" [ "mesi"; "flat"; "moesi" ] (Sim.model_names ());
  Alcotest.(check string) "default is mesi" "mesi" (Sim.model_name_of Sim.default_model);
  Alcotest.(check string)
    "lookup is case-insensitive" "moesi"
    (Sim.model_name_of (Sim.model_of_name "MOESI"));
  Alcotest.check_raises "unknown model rejected"
    (Invalid_argument "unknown coherence model: mesix (expected one of: mesi, flat, moesi)")
    (fun () -> ignore (Sim.model_of_name "mesix"))

(* ------------------------------------------------------------------ *)
(* Functional equivalence under controlled scheduling                  *)
(* ------------------------------------------------------------------ *)

(* fixed deterministic scheduler: always run the lowest runnable tid *)
let lowest_tid r = Sim.runnable_tid r 0

let test_run_once_verdict_invariant () =
  let verdict model name =
    let maker = (Ascylib.Registry.by_name name).Ascylib.Registry.maker in
    Sct.run_once ~races:true ~model maker (spec name) ~sched:lowest_tid
  in
  List.iter
    (fun name ->
      let m = verdict mesi name and f = verdict flat name and o = verdict moesi name in
      Alcotest.(check (option string)) (name ^ ": flat = mesi") m f;
      Alcotest.(check (option string)) (name ^ ": moesi = mesi") m o)
    [ "ll-lazy"; "ll-async"; "ht-java"; "sl-fraser"; "bst-tk"; "ll-pathcas"; "bst-pathcas" ]

let explore_stats model name =
  let finding, report = Sct.explore ~mode:Explorer.Dpor ~model (spec name) in
  ( report.Explorer.schedules,
    report.Explorer.steps,
    report.Explorer.complete,
    Option.map (fun (f : Sct.finding) -> f.Sct.violation) finding )

let test_schedule_space_invariant () =
  (* ll-harris: a fast, exhaustively-explorable space *)
  let m = explore_stats mesi "ll-harris" in
  Alcotest.(check bool) "flat explores the same space" true (explore_stats flat "ll-harris" = m);
  Alcotest.(check bool) "moesi explores the same space" true (explore_stats moesi "ll-harris" = m)

let test_flat_ll_lazy_golden_space () =
  (* the repo's pinned schedule space, explored under the cheap model:
     any drift in either the flat model or the scheduler core moves
     these numbers *)
  let schedules, steps, complete, violation = explore_stats flat "ll-lazy" in
  Alcotest.(check int) "ll-lazy schedules" 2099 schedules;
  Alcotest.(check int) "ll-lazy decisions" 609_932 steps;
  Alcotest.(check bool) "space exhausted" true complete;
  Alcotest.(check (option string)) "no violation" None violation

let test_pathcas_space_invariant () =
  (* the k-CAS commit must be priced per touched line by every model
     yet scheduled identically: same exhausted space, same verdict,
     under the directory model and the O(1) flat model *)
  let m = explore_stats mesi "ll-pathcas" in
  Alcotest.(check bool) "flat explores the same ll-pathcas space" true
    (explore_stats flat "ll-pathcas" = m);
  let schedules, _, complete, violation = m in
  Alcotest.(check int) "ll-pathcas fuzz schedules" 50 schedules;
  Alcotest.(check bool) "space exhausted" true complete;
  Alcotest.(check (option string)) "no violation" None violation

let test_minimized_counterexample_invariant () =
  let hunt model =
    let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true ~model (spec "ll-async") in
    match finding with
    | None -> Alcotest.fail "SCT failed to break the asynchronized list"
    | Some f -> f
  in
  let m = hunt mesi and f = hunt flat in
  Alcotest.(check string) "same violation" m.Sct.violation f.Sct.violation;
  Alcotest.(check (array int)) "same failing schedule" m.Sct.schedule f.Sct.schedule;
  Alcotest.(check (array int)) "same minimized prefix" m.Sct.minimized f.Sct.minimized;
  Alcotest.(check string) "same minimized violation" m.Sct.min_violation f.Sct.min_violation

(* ------------------------------------------------------------------ *)
(* Replay files record and re-arm the model                            *)
(* ------------------------------------------------------------------ *)

let test_replay_rearms_model () =
  let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true ~model:flat (spec "ll-async") in
  let f = Option.get finding in
  let path = Filename.temp_file "model_roundtrip" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sct.save_finding ~races:true ~model:flat ~path ~prefix:f.Sct.minimized
        ~violation:f.Sct.min_violation (spec "ll-async");
      let meta =
        let _, _, meta = Ascy_sct.Replay.load path in
        meta
      in
      Alcotest.(check string)
        "non-default model recorded in meta" "flat"
        (Sim.model_name_of (Engine.model_of_meta meta));
      let _, _, expected, results = Sct.replay_file path in
      Alcotest.(check bool)
        "replay reproduces under the recorded model" true
        (match (expected, results) with
        | Some v, [ Some a; Some b ] -> a = v && b = v
        | _ -> false))

let test_replay_unknown_model_rejected () =
  (* a replay file naming a model this build does not have is a bad
     schedule file, reported like any other, not an escaping
     Invalid_argument *)
  let finding, _ = Sct.explore ~mode:Explorer.Dpor ~races:true ~model:flat (spec "ll-async") in
  let path = Filename.temp_file "model_unknown" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let f = Option.get finding in
      Sct.save_finding ~races:true ~model:flat ~path ~prefix:f.Sct.minimized
        ~violation:f.Sct.min_violation (spec "ll-async");
      let prefix, _, meta = Ascy_sct.Replay.load path in
      let meta =
        List.map
          (fun (k, v) -> if k = "model" then (k, Ascy_util.Json.String "mesix") else (k, v))
          meta
      in
      Ascy_sct.Replay.save ~path ~meta ~prefix ();
      Alcotest.check_raises "unknown model is a bad schedule"
        (Ascy_sct.Replay.Bad_schedule
           "unknown coherence model: mesix (expected one of: mesi, flat, moesi)")
        (fun () -> ignore (Sct.replay_file path)))

let test_default_model_meta_is_empty () =
  (* mesi replay files must stay byte-identical to pre-refactor ones:
     the default model adds no metadata *)
  Alcotest.(check int) "mesi adds no meta" 0 (List.length (Engine.model_meta mesi));
  Alcotest.(check string)
    "absent meta defaults to mesi" "mesi"
    (Sim.model_name_of (Engine.model_of_meta []))

(* ------------------------------------------------------------------ *)
(* Costs: models must actually be different models                     *)
(* ------------------------------------------------------------------ *)

(* two threads ping-ponging RMWs on one line: maximal coherence traffic *)
let pingpong model platform =
  Sim.with_sim ~model ~platform ~nthreads:2 (fun sim ->
      let r = Mem.make_fresh 0 in
      let body _ () =
        for _ = 1 to 200 do
          ignore (Mem.fetch_and_add r 1)
        done
      in
      let makespan = Sim.run sim (Array.init 2 body) in
      (Mem.get r, makespan, Sim.stats sim ~makespan))

(* one writer, one reader on a single line: MESI demotes the dirty line
   to Shared on every read (with an LLC writeback), MOESI leaves it
   Owned in the writer's cache — so the two price this pattern
   differently, while a pure RMW ping-pong (always write-intent) costs
   the same under both *)
let write_read_share model platform =
  Sim.with_sim ~model ~platform ~nthreads:2 (fun sim ->
      let r = Mem.make_fresh 0 in
      let bodies =
        [|
          (fun () ->
            for i = 1 to 300 do
              Mem.set r i
            done);
          (fun () ->
            for _ = 1 to 300 do
              ignore (Mem.get r)
            done);
        |]
      in
      let makespan = Sim.run sim bodies in
      (makespan, Sim.stats sim ~makespan))

let test_models_priced_differently () =
  let v_mesi, m_mesi, _ = pingpong mesi P.opteron in
  let v_flat, m_flat, _ = pingpong flat P.opteron in
  let v_moesi, m_moesi, _ = pingpong moesi P.opteron in
  Alcotest.(check int) "mesi: no lost updates" 400 v_mesi;
  Alcotest.(check int) "flat: no lost updates" 400 v_flat;
  Alcotest.(check int) "moesi: no lost updates" 400 v_moesi;
  Alcotest.(check bool) "flat is cheaper than mesi" true (m_flat < m_mesi);
  Alcotest.(check int) "rmw ping-pong costs the same under moesi" m_mesi m_moesi;
  let wr_mesi, st_mesi = write_read_share mesi P.opteron in
  let wr_moesi, st_moesi = write_read_share moesi P.opteron in
  Alcotest.(check bool) "moesi prices dirty-read sharing differently" true (wr_moesi <> wr_mesi);
  Alcotest.(check bool)
    "moesi never demotes into the llc" true
    (st_moesi.Sim.hits_llc < st_mesi.Sim.hits_llc)

let test_flat_is_uniform () =
  (* under flat, every access costs an L1 hit: a shared ping-pong and a
     private loop of the same length have identical access costs *)
  let _, _, st = pingpong flat P.xeon20 in
  Alcotest.(check int) "no transfers counted" 0 (st.Sim.transfers_local + st.Sim.transfers_remote);
  Alcotest.(check int) "no llc hits counted" 0 (st.Sim.hits_llc + st.Sim.fetch_remote);
  Alcotest.(check int) "no memory accesses counted" 0 st.Sim.misses_mem;
  Alcotest.(check int) "everything is an l1 hit" st.Sim.accesses st.Sim.hits_l1

(* ------------------------------------------------------------------ *)
(* MESI golden pins                                                    *)
(* ------------------------------------------------------------------ *)

let test_mesi_default_identity () =
  (* the implicit default must be the very same run as explicit mesi *)
  let explicit = pingpong mesi P.xeon20 in
  let implicit =
    Sim.with_sim ~platform:P.xeon20 ~nthreads:2 (fun sim ->
        let r = Mem.make_fresh 0 in
        let body _ () =
          for _ = 1 to 200 do
            ignore (Mem.fetch_and_add r 1)
          done
        in
        let makespan = Sim.run sim (Array.init 2 body) in
        (Mem.get r, makespan, Sim.stats sim ~makespan))
  in
  Alcotest.(check bool) "default model = mesi, bit for bit" true (explicit = implicit)

let test_mesi_golden_stats () =
  (* bit-for-bit pin of the pre-refactor directory model on a fixed
     contended workload; any change to MESI's state machine, the charge
     order, or the scheduler moves at least one of these numbers *)
  let _, makespan, st = pingpong mesi P.xeon20 in
  Alcotest.(check int) "makespan" 17_022 makespan;
  Alcotest.(check int) "accesses" 400 st.Sim.accesses;
  Alcotest.(check int) "atomics" 400 st.Sim.atomics;
  Alcotest.(check int) "l1 hits" 13 st.Sim.hits_l1;
  Alcotest.(check int) "local transfers" 386 st.Sim.transfers_local

(* ------------------------------------------------------------------ *)
(* Directory-model pins: mesi and moesi, bit for bit                   *)
(* ------------------------------------------------------------------ *)

(* every field of a run's stats, floats in %h: one line per run, so a
   drift names the run that moved *)
let stats_line label (st : Sim.run_stats) =
  Printf.sprintf "%s: makespan=%d s=%h acc=%d l1=%d llc=%d c2c=%d/%d rfetch=%d mem=%d rmw=%d st=%d e=%h p=%h ev=%s"
    label st.Sim.makespan_cycles st.Sim.seconds st.Sim.accesses st.Sim.hits_l1 st.Sim.hits_llc
    st.Sim.transfers_local st.Sim.transfers_remote st.Sim.fetch_remote st.Sim.misses_mem
    st.Sim.atomics st.Sim.stores st.Sim.energy_j st.Sim.power_w
    (String.concat "," (Array.to_list (Array.map string_of_int st.Sim.events)))

(* 12 threads span two sockets on both platforms *)
let pin_threads = 12

let raw_run model platform ~lines body =
  Sim.with_sim ~model ~platform ~nthreads:pin_threads (fun sim ->
      let cells = Array.init lines (fun _ -> Mem.make_fresh 0) in
      let makespan = Sim.run sim (Array.init pin_threads (fun t () -> body cells t)) in
      Sim.stats sim ~makespan)

(* HTM-elided CLHT-LB updates on a warmed directory: the transactional
   path (txn_conflict / txn_line_cost / txn_commit) next to plain
   accesses *)
let pin_txn model platform =
  Ascy_hashtable.Clht_lb.htm := true;
  Fun.protect
    ~finally:(fun () -> Ascy_hashtable.Clht_lb.htm := false)
    (fun () ->
      let maker = (Ascylib.Registry.by_name "ht-clht-lb").Ascylib.Registry.maker in
      let wl = Ascy_harness.Workload.make ~initial:128 ~update_pct:40 () in
      let r =
        Ascy_harness.Sim_run.run ~seed:3 ~model maker ~platform ~nthreads:pin_threads
          ~workload:wl ~ops_per_thread:60 ()
      in
      r.Ascy_harness.Sim_run.stats)

(* four lines per slot, 16384 lines apart (a multiple of both
   platforms' private slot counts), walked by every thread on a cold
   machine: fills evict, and revisits hit the LLC only where the model
   writes evicted lines back into it *)
let pin_evict model platform =
  let stride = 16384 in
  raw_run model platform ~lines:(4 * stride) (fun cells t ->
      for round = 0 to 5 do
        for k = 0 to 3 do
          let c = cells.((k * stride) + ((t + round) mod 16)) in
          if (t + k + round) mod 3 = 0 then Mem.set c round else ignore (Mem.get c)
        done
      done)

(* writers, RMW-ers and readers on both sockets sharing eight dirty
   lines: the dirty-read transfer, owner demotion vs. Owned, and
   upgrades with remote sharers *)
let pin_share model platform =
  raw_run model platform ~lines:8 (fun cells t ->
      for i = 1 to 100 do
        let c = cells.((i + t) mod 8) in
        match t mod 4 with
        | 0 -> Mem.set c i
        | 1 -> ignore (Mem.fetch_and_add c 1)
        | _ -> ignore (Mem.get c)
      done)

let directory_pins () =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun platform ->
          List.map
            (fun (wl, run) ->
              stats_line
                (String.concat "/" [ Sim.model_name_of model; platform.P.name; wl ])
                (run model platform))
            [ ("txn", pin_txn); ("evict", pin_evict); ("share", pin_share) ])
        [ P.xeon20; P.opteron ])
    [ mesi; moesi ]

(* any change to either instance's state machine, its charge order or
   the scheduler moves at least one line *)
let directory_pins_expected =
  [
    "mesi/Xeon20/txn: makespan=6886 s=0x1.4a1469e93a348p-19 acc=4591 l1=3949 llc=521 c2c=85/33 rfetch=1 mem=2 rmw=4 st=24 e=0x1.7c66cccb71c43p-15 p=0x1.270731c8c82cp+4 ev=0,0,0,0,2,287,0,0,287";
    "mesi/Xeon20/evict: makespan=4056 s=0x1.84d91211ef0fbp-20 acc=288 l1=0 llc=173 c2c=27/2 rfetch=16 mem=70 rmw=0 st=96 e=0x1.b7a29c8c38133p-16 p=0x1.216fa150ba75fp+4 ev=0,0,0,0,0,0,0,0,0";
    "mesi/Xeon20/share: makespan=8870 s=0x1.a92ebe1c1133cp-19 acc=1200 l1=4 llc=480 c2c=527/69 rfetch=112 mem=8 rmw=300 st=300 e=0x1.f4838b6a75cd2p-15 p=0x1.2d5b44cd98219p+4 ev=0,0,0,0,0,0,0,0,0";
    "mesi/Opteron/txn: makespan=9872 s=0x1.3b79bf37c9309p-18 acc=4598 l1=3946 llc=528 c2c=53/67 rfetch=2 mem=2 rmw=4 st=24 e=0x1.5c495fa3065d6p-14 p=0x1.1aa012968797cp+4 ev=0,0,0,0,2,287,0,0,287";
    "mesi/Opteron/evict: makespan=5400 s=0x1.59219cea0c3b6p-19 acc=288 l1=0 llc=172 c2c=28/3 rfetch=15 mem=70 rmw=0 st=96 e=0x1.7a0633ff3e979p-15 p=0x1.1865f1e43cfc1p+4 ev=0,0,0,0,0,0,0,0,0";
    "mesi/Opteron/share: makespan=28080 s=0x1.c0abb263764d2p-17 acc=1200 l1=19 llc=314 c2c=196/395 rfetch=268 mem=8 rmw=300 st=300 e=0x1.e50622b08e658p-13 p=0x1.14be03f4ba2cep+4 ev=0,0,0,0,0,0,0,0,0";
    "moesi/Xeon20/txn: makespan=10458 s=0x1.f54d9f701d496p-19 acc=5269 l1=4550 llc=352 c2c=248/114 rfetch=3 mem=2 rmw=132 st=216 e=0x1.1e7ebd979d0c8p-14 p=0x1.249bb98a3f31dp+4 ev=0,0,0,0,66,287,0,0,287";
    "moesi/Xeon20/evict: makespan=5006 s=0x1.dfec9b7a5cf4bp-20 acc=288 l1=0 llc=124 c2c=25/2 rfetch=22 mem=115 rmw=0 st=96 e=0x1.104dae73404a8p-15 p=0x1.2280baf24c871p+4 ev=0,0,0,0,0,0,0,0,0";
    "moesi/Xeon20/share: makespan=10150 s=0x1.e68a0d349be9p-19 acc=1200 l1=81 llc=2 c2c=987/117 rfetch=2 mem=11 rmw=300 st=300 e=0x1.1f29093a70a7p-14 p=0x1.2e2ffe6b086p+4 ev=0,0,0,0,0,0,0,0,0";
    "moesi/Opteron/txn: makespan=17714 s=0x1.1b0a24bccfdccp-17 acc=5291 l1=4559 llc=347 c2c=172/208 rfetch=3 mem=2 rmw=134 st=217 e=0x1.3515375412167p-13 p=0x1.178e25aef8613p+4 ev=0,0,0,0,67,287,0,0,287";
    "moesi/Opteron/evict: makespan=7500 s=0x1.df5959efbba7cp-19 acc=288 l1=0 llc=111 c2c=28/3 rfetch=25 mem=121 rmw=0 st=96 e=0x1.062e501c0d81ep-14 p=0x1.180a17b0f6ad7p+4 ev=0,0,0,0,0,0,0,0,0";
    "moesi/Opteron/share: makespan=33820 s=0x1.0e316cfa12d2p-16 acc=1200 l1=14 llc=0 c2c=365/804 rfetch=4 mem=13 rmw=300 st=300 e=0x1.24151273bb879p-12 p=0x1.14bd4a596bf2p+4 ev=0,0,0,0,0,0,0,0,0";
  ]

let test_directory_pins () =
  Alcotest.(check (list string)) "mesi/moesi run stats" directory_pins_expected (directory_pins ())

module Cohmodel = Ascy_mem.Cohmodel
module Simtypes = Ascy_mem.Simtypes

(* The Opteron's LLC has 131072 slots: lines [k] and [k + 131072] share
   an LLC slot (and a private slot), for small and top-of-array [k].  A
   fixed read/write/RMW walk over each pair from cores on three sockets,
   driven on the model directly, makes an LLC tag array hold one line of
   a slot after the other was filled, written back or invalidated there.
   Every latency and class is pinned. *)
let llc_alias = 131072

let aliased_llc_trace model =
  match Cohmodel.instantiate model ~platform:P.opteron with
  | Cohmodel.Inst ((module M), t) ->
      for id = 0 to (2 * llc_alias) + 63 do
        M.on_new_line t id
      done;
      let cnt = Simtypes.fresh_counters () in
      let cps = P.cores_per_socket P.opteron in
      List.map
        (fun k ->
          let a = k + llc_alias in
          Simtypes.
            [
              (0, Read, k); (0, Read, a); (1, Read, k); (1, Write, a); (7, Read, a); (7, Rmw, k);
              (0, Read, k); (2, Rmw, a); (13, Read, k); (13, Read, a); (0, Write, k); (1, Read, a);
            ]
          |> List.map (fun (core, kind, line) ->
                 let lat = M.access t cnt ~core ~socket:(core / cps) kind line in
                 Printf.sprintf "%d:%s" lat (Simtypes.trace_class_name cnt.last_class))
          |> String.concat " "
          |> Printf.sprintf "%s/%d: %s" (Sim.model_name_of model) k)
        [ 0; 5; 4097; llc_alias - 1 ]

let aliased_llc_expected =
  [
    "mesi/0: 350:mem 350:mem 350:mem 40:llc 310:c2c_remote 385:mem 310:c2c_remote 75:llc 220:llc_remote 310:c2c_remote 220:llc_remote 220:llc_remote";
    "mesi/5: 350:mem 350:mem 350:mem 40:llc 310:c2c_remote 385:mem 310:c2c_remote 75:llc 220:llc_remote 310:c2c_remote 220:llc_remote 220:llc_remote";
    "mesi/4097: 350:mem 350:mem 350:mem 40:llc 310:c2c_remote 385:mem 310:c2c_remote 75:llc 220:llc_remote 310:c2c_remote 220:llc_remote 220:llc_remote";
    "mesi/131071: 350:mem 350:mem 350:mem 40:llc 310:c2c_remote 385:mem 310:c2c_remote 75:llc 220:llc_remote 310:c2c_remote 220:llc_remote 220:llc_remote";
    "moesi/0: 350:mem 350:mem 40:llc 40:llc 310:c2c_remote 385:mem 310:c2c_remote 145:c2c_local 310:c2c_remote 310:c2c_remote 310:c2c_remote 110:c2c_local";
    "moesi/5: 350:mem 350:mem 40:llc 40:llc 310:c2c_remote 385:mem 310:c2c_remote 145:c2c_local 310:c2c_remote 310:c2c_remote 310:c2c_remote 110:c2c_local";
    "moesi/4097: 350:mem 350:mem 40:llc 40:llc 310:c2c_remote 385:mem 310:c2c_remote 145:c2c_local 310:c2c_remote 310:c2c_remote 310:c2c_remote 110:c2c_local";
    "moesi/131071: 350:mem 350:mem 40:llc 40:llc 310:c2c_remote 385:mem 310:c2c_remote 145:c2c_local 310:c2c_remote 310:c2c_remote 310:c2c_remote 110:c2c_local";
  ]

let test_aliased_llc_pins () =
  Alcotest.(check (list string))
    "mesi/moesi aliased-LLC walk" aliased_llc_expected
    (List.concat_map aliased_llc_trace [ mesi; moesi ])

(* A seeded 100k-access R/W/RMW stream from every core, driven on the
   model directly: half the accesses go to 64 hot lines all cores share,
   a quarter to the 16 newest lines (one is created every 1000
   accesses), a quarter anywhere among 150,000 lines, enough to alias
   the private caches everywhere and the LLCs on the Opteron and T4-4;
   only the first 4096 lines are warmed.  The digest is the sum of the
   latencies, every counter and the bits of the energy. *)
let stream_digest model platform =
  match Cohmodel.instantiate model ~platform with
  | Cohmodel.Inst ((module M), t) ->
      let nlines = ref 0 in
      let new_line () =
        M.on_new_line t !nlines;
        incr nlines
      in
      for _ = 1 to 150_000 do
        new_line ()
      done;
      M.warm t ~nlines:4096;
      let rng = Ascy_util.Xorshift.create 2015 in
      let below = Ascy_util.Xorshift.below rng in
      let cps = P.cores_per_socket platform in
      let cnt = Simtypes.fresh_counters () in
      let lat = ref 0 in
      for i = 1 to 100_000 do
        if i mod 1000 = 0 then new_line ();
        let line =
          match below 4 with
          | 0 | 1 -> below 64
          | 2 -> !nlines - 1 - below 16
          | _ -> below !nlines
        in
        let core = below platform.P.cores in
        let kind = match below 20 with 0 | 1 | 2 -> Sim.Rmw | 3 | 4 | 5 | 6 | 7 -> Sim.Write | _ -> Sim.Read in
        lat := !lat + M.access t cnt ~core ~socket:(core / cps) kind line
      done;
      Printf.sprintf
        "%s/%s: lat=%d acc=%d l1=%d llc=%d c2c=%d/%d rfetch=%d mem=%d rmw=%d st=%d e=%Ld"
        (Sim.model_name_of model) platform.P.name !lat cnt.accesses cnt.l1 cnt.llc cnt.c2c_local
        cnt.c2c_remote cnt.llc_remote cnt.mem cnt.rmw cnt.writes
        (Int64.bits_of_float cnt.energy.nj)

let stream_expected =
  [
    "mesi/Xeon20: lat=11987716 acc=0 l1=5901 llc=25751 c2c=14255/15763 rfetch=15802 mem=22528 rmw=15127 st=0 e=4694129458855855740";
    "mesi/Opteron: lat=22407950 acc=0 l1=2575 llc=25407 c2c=3291/27169 rfetch=19040 mem=22518 rmw=15127 st=0 e=4694222706031825867";
    "mesi/T4-4: lat=11388838 acc=0 l1=3764 llc=25117 c2c=6863/23422 rfetch=18289 mem=22545 rmw=15127 st=0 e=4694190221905675984";
    "moesi/Xeon20: lat=13513524 acc=0 l1=6820 llc=801 c2c=32525/36041 rfetch=600 mem=23213 rmw=15127 st=0 e=4694946734868213720";
    "moesi/Opteron: lat=29775863 acc=0 l1=2946 llc=548 c2c=7791/64664 rfetch=808 mem=23243 rmw=15127 st=0 e=4695154210135395133";
    "moesi/T4-4: lat=13891115 acc=0 l1=4318 llc=628 c2c=16128/54935 rfetch=758 mem=23233 rmw=15127 st=0 e=4695080605562856499";
  ]

let test_stream_digest () =
  Alcotest.(check (list string))
    "mesi/moesi 100k-access stream" stream_expected
    (List.concat_map
       (fun model -> List.map (stream_digest model) [ P.xeon20; P.opteron; P.t44 ])
       [ mesi; moesi ])

(* A sharer set is one [int] mask, so a directory model takes at most
   [Sys.int_size - 1] cores and names the platform it refuses. *)
let test_too_many_cores_rejected () =
  let wide cores = { P.xeon20 with P.name = "Wide" ^ string_of_int cores; cores; sockets = 1 } in
  List.iter
    (fun model ->
      let cores = Sys.int_size - 1 in
      (match Cohmodel.instantiate model ~platform:(wide cores) with
      | Cohmodel.Inst ((module M), t) ->
          M.on_new_line t 0;
          ignore (M.access t (Simtypes.fresh_counters ()) ~core:(cores - 1) ~socket:0 Sim.Write 0 : int));
      Alcotest.check_raises
        (Sim.model_name_of model ^ ": int-size cores rejected")
        (Invalid_argument
           (Printf.sprintf "Coh_dir.create: Wide%d has %d cores; a sharer mask holds at most %d"
              Sys.int_size Sys.int_size (Sys.int_size - 1)))
        (fun () -> ignore (Cohmodel.instantiate model ~platform:(wide Sys.int_size))))
    [ mesi; moesi ]

(* A directory model's per-session state follows the lines a session
   installs, not the platform's cache sizes (xeon20's full tag arrays
   are about 1.2M words). *)
let session_words_bound = 16384

let test_session_memory_bound () =
  List.iter
    (fun model ->
      let inst = Cohmodel.instantiate model ~platform:P.xeon20 in
      let check stage =
        let words = Obj.reachable_words (Obj.repr inst) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: %d words <= %d" (Sim.model_name_of model) stage words
             session_words_bound)
          true (words <= session_words_bound)
      in
      check "fresh";
      match inst with
      | Cohmodel.Inst ((module M), t) ->
          for id = 0 to 63 do
            M.on_new_line t id
          done;
          M.warm t ~nlines:64;
          check "64 lines, warmed")
    [ mesi; moesi ]

let suite =
  [
    Alcotest.test_case "model registry" `Quick test_registry;
    Alcotest.test_case "controlled verdicts model-invariant" `Quick test_run_once_verdict_invariant;
    Alcotest.test_case "schedule space model-invariant" `Slow test_schedule_space_invariant;
    Alcotest.test_case "flat ll-lazy pins 2099 schedules" `Slow test_flat_ll_lazy_golden_space;
    Alcotest.test_case "ll-pathcas space model-invariant" `Slow test_pathcas_space_invariant;
    Alcotest.test_case "minimized counterexample model-invariant" `Slow
      test_minimized_counterexample_invariant;
    Alcotest.test_case "replay re-arms recorded model" `Quick test_replay_rearms_model;
    Alcotest.test_case "replay rejects unknown model" `Quick test_replay_unknown_model_rejected;
    Alcotest.test_case "default model leaves meta empty" `Quick test_default_model_meta_is_empty;
    Alcotest.test_case "models priced differently" `Quick test_models_priced_differently;
    Alcotest.test_case "flat is uniform cost" `Quick test_flat_is_uniform;
    Alcotest.test_case "default = explicit mesi" `Quick test_mesi_default_identity;
    Alcotest.test_case "mesi golden stats" `Quick test_mesi_golden_stats;
    Alcotest.test_case "directory models pinned" `Quick test_directory_pins;
    Alcotest.test_case "directory models pinned, aliased LLC" `Quick test_aliased_llc_pins;
    Alcotest.test_case "directory session memory bounded" `Quick test_session_memory_bound;
    Alcotest.test_case "directory models pinned, 100k-access stream" `Quick test_stream_digest;
    Alcotest.test_case "directory rejects int-size core counts" `Quick test_too_many_cores_rejected;
  ]
