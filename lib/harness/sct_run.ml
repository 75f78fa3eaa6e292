(** Scripted set workloads on the simulator: the one executor behind
    systematic concurrency testing (schedule exploration,
    {!Ascy_sct.Explorer}) and chaos testing ({!Fault_run}), and the one
    replay-file writer and reader for both.

    This is the SCT sibling of {!Sim_run}: where [Sim_run] measures one
    free-running execution, [Sct_run] runs a small deterministic
    workload under a controlled schedule — optionally with an injected
    fault plan and a progress watchdog — and checks the run.  [explore]
    enumerates bounded interleavings and checks every one; failing
    schedules are minimized and serialized for bit-for-bit replay.

    Oracles, in the order {!run} applies them:
    - {e crash}: an exception escaping a simulated thread
      ([Sim.Thread_failure]) is a violation — unless the exception is
      [Sim.Thread_killed], the tag carried by injected crash faults,
      which marks deliberate fault-induced termination, not a bug;
    - {e progress watchdog} (armed by [~watchdog]): some thread completes
      an operation within [watchdog] scheduling decisions, or the run is
      declared wedged and the report names what every surviving thread
      was blocked on (for a lock-holder crash: the lock's cache line);
    - {e data race} (opt-in, [~races:true]): the happens-before detector
      ({!Ascy_analysis.Race}) observed two plain writes to the same
      cache line unordered by the run's synchronization;
    - {e structure}: [validate] must pass (ordering/reachability);
    - {e conservation}: for every key, initial membership plus net
      successful inserts/removes must equal final membership, widened by
      ±1 on the keys of crashed threads' in-flight ops (a crash-stopped
      insert may or may not have taken effect — both are legal);
    - {e linearizability}, only without a fault plan (an op cut short by
      a fault is missing from the history): the recorded
      invocation/response history must admit a legal linearization
      ({!History.check}).

    A step-budget overflow under the (fair) controlled scheduler is also
    a violation — that is how the sl-pugh livelock class of bug
    surfaces under SCT. *)

module Sim = Ascy_mem.Sim
module P = Ascy_platform.Platform
module J = Ascy_util.Json
module Explorer = Ascy_sct.Explorer
module Scheduler = Ascy_sct.Scheduler
module Replay = Ascy_sct.Replay

type op = Workload.op = Search | Insert | Remove

(** A fully deterministic workload: the algorithm (by registry name),
    the keys present before the measured run, and one operation script
    per thread.  Schedules are only reproducible against the identical
    spec, so the spec is serialized alongside each counterexample. *)
type spec = {
  name : string;  (** registry name, e.g. ["ll-lazy"] *)
  platform : P.t;
  nthreads : int;
  initial : int list;
  script : (op * int) array array;  (** [script.(tid)] = that thread's ops *)
}

let mk_spec ?(platform = P.xeon20) ~name ~initial ~script () =
  let nthreads = Array.length script in
  if nthreads < 1 then invalid_arg "Sct_run.mk_spec: empty script";
  { name; platform; nthreads; initial; script }

(** The small adversarial workload the binaries explore: three threads
    race inserts and removes over keys 1..3, with 2 prefilled. *)
let adversarial_spec name =
  mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Insert, 1); (Remove, 2); (Insert, 3) |];
        [| (Insert, 1); (Insert, 2); (Remove, 3) |];
        [| (Remove, 1); (Insert, 2) |];
      |]
    ()

(** Derive a per-thread script from a {!Workload} the same way
    {!Sim_run} draws operations — per-thread RNGs, schedule-independent
    — so fuzz-style workloads can be explored systematically. *)
let script_of_workload ~(workload : Workload.t) ~nthreads ~ops_per_thread ~seed =
  Array.init nthreads (fun tid ->
      let rng = Ascy_util.Xorshift.create ((seed * 7919) + (tid * 104729) + 13) in
      Array.init ops_per_thread (fun _ ->
          let k = Workload.pick_key workload rng in
          let op = Workload.pick_op workload rng in
          (op, k)))

(** The registry implementation a spec names. *)
let maker_of spec = (Ascylib.Registry.by_name spec.name).Ascylib.Registry.maker

(* Keys a spec can ever touch: initial ∪ scripted. *)
let keys_of spec =
  let tbl = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) spec.initial;
  Array.iter (Array.iter (fun (_, k) -> Hashtbl.replace tbl k ())) spec.script;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(** What one scripted run observed: [violation] is the first oracle
    that rejected it; [wedged] says that oracle was the watchdog. *)
type outcome = { wedged : bool; violation : string option }

(** Decision cap of a watchdog-armed run, however steadily operations
    complete. *)
let watchdog_max_steps = 200_000

(** What a thread was about to do when it was listed runnable. *)
let action_str = function
  | Sim.A_start -> "not started"
  | Sim.A_work n -> Printf.sprintf "work(%d)" n
  | Sim.A_access (k, line) ->
      Printf.sprintf "%s@line%d"
        (match k with Sim.Read -> "read" | Sim.Write -> "write" | Sim.Rmw -> "rmw")
        line
  | Sim.A_kcas lines ->
      Printf.sprintf "kcas@lines[%s]"
        (String.concat "," (Array.to_list (Array.map string_of_int lines)))

(* Watchdog trip, raised from inside the scheduler callback with the
   report: the decision it tripped at and what each surviving thread
   was blocked on. *)
exception Wedged of string

(** [run ?faults ?races ?model ?watchdog ?check maker spec ~sched]
    executes the spec once under [sched] with [faults] injected and
    applies the oracles above.  [check = false] skips validation,
    conservation and linearizability — required when the structure may
    be left mid-update behind a corpse's lock (declared-blocking designs
    under crash), where even reading it back could spin forever.
    [model] selects the coherence cost model: under a controlled
    scheduler the program's behavior is latency-independent, so verdicts
    are model-invariant — [flat] gives the same verdicts faster.
    Deterministic: the same schedule yields the identical outcome,
    including the description string. *)
let run ?(faults = []) ?(races = false) ?(model = Sim.default_model) ?watchdog ?(check = true)
    (module A : Ascy_core.Set_intf.MAKER) spec ~sched =
  let module M = A (Sim.Mem) in
  (* History timestamps must reflect the *scheduling order*: [Sim.now]
     is the executing thread's local clock, which tracks global order
     under the default smallest-clock policy but lags arbitrarily for a
     descheduled thread under a controlled schedule.  A counter bumped
     at every scheduling decision is a sound logical clock: a thread
     reads it only while scheduled, so op A's response strictly precedes
     op B's invocation iff A's last step ran before B's first. *)
  let clock = ref 0 in
  let last_progress = ref 0 in
  let sched =
    match watchdog with
    | None ->
        fun runnable ->
          incr clock;
          sched runnable
    | Some w ->
        let crash_tids =
          List.filter_map
            (fun fe -> match fe.Sim.fe_fault with Sim.F_crash -> Some fe.Sim.fe_tid | _ -> None)
            faults
        in
        fun runnable ->
          incr clock;
          if !clock - !last_progress > w || !clock > watchdog_max_steps then begin
            let spun =
              List.filter_map
                (fun i ->
                  let tid = Sim.runnable_tid runnable i in
                  if List.mem tid crash_tids then None
                  else
                    Some
                      (Printf.sprintf "t%d blocked on %s" tid
                         (action_str (Sim.runnable_action runnable i))))
                (List.init (Sim.runnable_count runnable) Fun.id)
            in
            raise
              (Wedged
                 (Printf.sprintf
                    "watchdog: no operation completed for %d decisions (tripped at %d); %s" w
                    !clock (String.concat ", " spun)))
          end;
          sched runnable
  in
  let cfg =
    {
      (Engine.default ~platform:spec.platform ~nthreads:spec.nthreads) with
      scheduler = Some sched;
      faults;
      races;
      model;
    }
  in
  Engine.with_session cfg (fun session ->
      let sim = session.Engine.sim in
      (* build + prefill outside simulated time, like Sim_run *)
      let t = M.create ~hint:(max 8 (List.length spec.initial)) () in
      List.iter (fun k -> ignore (M.insert t k (-1))) spec.initial;
      Sim.warm sim;
      let h = History.create () in
      List.iter (History.add_initial h) spec.initial;
      let net = Hashtbl.create 32 in
      let bump k d = Hashtbl.replace net k (d + try Hashtbl.find net k with Not_found -> 0) in
      let done_ops = Array.make spec.nthreads 0 in
      let body tid () =
        Array.iter
          (fun (op, k) ->
            let inv = !clock in
            let ok =
              match op with
              | Search -> M.search t k <> None
              | Insert ->
                  let r = M.insert t k tid in
                  if r then bump k 1;
                  r
              | Remove ->
                  let r = M.remove t k in
                  if r then bump k (-1);
                  r
            in
            let res = !clock in
            let kind =
              match op with
              | Search -> History.Search
              | Insert -> History.Insert
              | Remove -> History.Remove
            in
            History.record h ~tid ~kind ~key:k ~result:ok ~inv ~res;
            M.op_done t;
            done_ops.(tid) <- done_ops.(tid) + 1;
            last_progress := !clock)
          spec.script.(tid)
      in
      (* membership slack per key: a crashed thread's in-flight insert
         (remove) of [k] may or may not have taken effect *)
      let slack k =
        List.fold_left
          (fun (lo, hi) tid ->
            let ops = spec.script.(tid) in
            if done_ops.(tid) >= Array.length ops then (lo, hi)
            else
              match ops.(done_ops.(tid)) with
              | Insert, k' when k' = k -> (lo, hi + 1)
              | Remove, k' when k' = k -> (lo - 1, hi)
              | _ -> (lo, hi))
          (0, 0) (Sim.crashed_tids sim)
      in
      let fault_free = faults = [] in
      let conservation () =
        List.filter_map
          (fun k ->
            let wanted =
              (if List.mem k spec.initial then 1 else 0)
              + (try Hashtbl.find net k with Not_found -> 0)
            in
            let lo, hi = slack k in
            let got = if M.search t k <> None then 1 else 0 in
            if got >= wanted + lo && got <= wanted + hi then None
            else if fault_free then
              Some
                (Printf.sprintf "key %d: net count %d (initial + successful updates), membership %d"
                   k wanted got)
            else
              Some
                (Printf.sprintf
                   "key %d: net count %d from completed ops (slack %+d..%+d), membership %d" k
                   wanted lo hi got))
          (keys_of spec)
      in
      let oracles () =
        match Engine.race_violation session with
        | Some desc -> Some desc
        | None when not check -> None
        | None -> (
            match M.validate t with
            | Error msg -> Some (Printf.sprintf "structural invariant broken: %s" msg)
            | Ok () -> (
                match conservation () with
                | _ :: _ as bad ->
                    Some
                      ((if fault_free then "set conservation violated: "
                        else "conservation violated: ")
                      ^ String.concat "; " bad)
                | [] when not fault_free -> None
                | [] -> (
                    match History.check h with
                    | Ok () -> None
                    | Error v -> Some ("not linearizable: " ^ History.pp_violation v))))
      in
      match Engine.run session (Array.init spec.nthreads body) with
      | exception Sim.Thread_failure (_, Sim.Thread_killed, _) ->
          (* fault-induced termination that resurfaced through wrapping
             test code: deliberate, not a bug *)
          { wedged = false; violation = None }
      | exception Sim.Thread_failure (tid, e, _) ->
          {
            wedged = false;
            violation = Some (Printf.sprintf "thread %d crashed: %s" tid (Printexc.to_string e));
          }
      | exception Wedged report -> { wedged = true; violation = Some report }
      | _ -> { wedged = false; violation = oracles () })

(** [run_once maker spec ~sched] is {!run}'s violation, without a
    watchdog: [Some description] iff an oracle rejects the run. *)
let run_once ?faults ?races ?model maker spec ~sched =
  (run ?faults ?races ?model maker spec ~sched).violation

(* A prefix-replay check with its own step budget, so minimizing or
   replaying a livelock counterexample cannot itself livelock. *)
let check_prefix ?faults ?races ?model maker spec ~max_steps prefix =
  let steps = ref 0 in
  let inner = Scheduler.prefix_scheduler ~prefix () in
  let sched runnable =
    incr steps;
    if !steps > max_steps then raise (Explorer.Step_limit !steps);
    inner runnable
  in
  try run_once ?faults ?races ?model maker spec ~sched
  with Explorer.Step_limit d ->
    Some (Printf.sprintf "step limit %d exceeded (possible livelock or starvation)" d)

type finding = {
  violation : string;  (** oracle description from the original failing run *)
  schedule : int array;  (** full failing decision sequence *)
  minimized : int array;  (** shrunk prefix; still fails under replay *)
  min_violation : string;  (** oracle description under the minimized prefix *)
}

(** [explore ?mode ?bounds ?races ?model ?policy ?domains spec]
    systematically explores the spec's schedule space ([~races:true]
    additionally runs the happens-before race detector over every
    schedule).  On failure the counterexample is minimized; the report
    carries exploration statistics either way.  [model] selects the
    coherence model for every run (controlled schedules make verdicts,
    schedule counts and minimized counterexamples model-invariant;
    [flat] explores the same space faster).

    [policy] picks the exploration policy ({!Ascy_sct.Explorer.policy}:
    exhaustive DFS, uniform random, PCT, swarm) and [domains] how many
    worker domains partition the work ({!Ascy_sct.Par_explore}).  The
    default — exhaustive, one domain — is the byte-identical historical
    path.  Findings from every policy and domain count flow through the
    same minimize/replay pipeline, and for a fixed policy seed the
    finding is domain-count invariant. *)
let explore ?mode ?(bounds = Explorer.default_bounds) ?races ?model ?policy ?domains spec =
  let maker = maker_of spec in
  let report =
    Ascy_sct.Par_explore.dispatch ?mode ~bounds ?policy ?domains
      ~run:(fun ~sched -> run_once ?races ?model maker spec ~sched)
      ()
  in
  let finding =
    match report.Explorer.failure with
    | None -> None
    | Some f ->
        let check = check_prefix ?races ?model maker spec ~max_steps:bounds.Explorer.max_steps in
        let minimized = Replay.minimize ~check f.Explorer.f_schedule in
        let min_violation =
          match check minimized with
          | Some d -> d
          | None -> assert false (* minimize guarantees the prefix fails *)
        in
        Some { violation = f.Explorer.f_desc; schedule = f.Explorer.f_schedule; minimized; min_violation }
  in
  (finding, report)

(** Structured summary of one exploration, for SCT/EXPLORE JSON rows.
    Carries the [incomplete] flag: {!Ascy_sct.Explorer} always computed
    completeness (a [max_schedules]-exhausted DFS is {e not} a proof of
    absence, and a randomized policy never proves anything), but
    summaries used to drop it — a clean verdict and an
    out-of-budget verdict printed identically. *)
let report_json ?(policy = Explorer.Exhaustive) ?(domains = 1) ?violation
    (report : Explorer.report) =
  J.Obj
    [
      ("policy", J.String (Explorer.policy_name policy));
      ("domains", J.Int domains);
      ("schedules", J.Int report.Explorer.schedules);
      ("steps", J.Int report.Explorer.steps);
      ("complete", J.Bool report.Explorer.complete);
      ("incomplete", J.Bool (not report.Explorer.complete));
      ("violation", match violation with Some v -> J.String v | None -> J.Null);
    ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let op_tag = function Search -> "s" | Insert -> "i" | Remove -> "r"

let op_of_tag = function
  | "s" -> Search
  | "i" -> Insert
  | "r" -> Remove
  | t -> raise (Replay.Bad_schedule ("unknown op tag: " ^ t))

let spec_meta spec =
  [
    ("algorithm", J.String spec.name);
    ("platform", J.String spec.platform.P.name);
    ("nthreads", J.Int spec.nthreads);
    ("initial", J.List (List.map (fun k -> J.Int k) spec.initial));
    ( "script",
      J.List
        (Array.to_list
           (Array.map
              (fun ops ->
                J.List
                  (Array.to_list
                     (Array.map (fun (op, k) -> J.List [ J.String (op_tag op); J.Int k ]) ops)))
              spec.script)) );
  ]

let spec_of_meta meta =
  let bad msg = raise (Replay.Bad_schedule msg) in
  let get k = match List.assoc_opt k meta with Some v -> v | None -> bad ("missing meta field: " ^ k) in
  let name = match get "algorithm" with J.String s -> s | _ -> bad "algorithm" in
  let platform =
    match get "platform" with
    | J.String s -> ( try P.by_name s with Invalid_argument msg -> bad msg)
    | _ -> bad "platform"
  in
  let initial =
    match get "initial" with
    | J.List ks -> List.map (function J.Int k -> k | _ -> bad "initial") ks
    | _ -> bad "initial"
  in
  let script =
    match get "script" with
    | J.List threads ->
        Array.of_list
          (List.map
             (function
               | J.List ops ->
                   Array.of_list
                     (List.map
                        (function
                          | J.List [ J.String tag; J.Int k ] -> (op_of_tag tag, k)
                          | _ -> bad "script op")
                        ops)
               | _ -> bad "script thread")
             threads)
    | _ -> bad "script"
  in
  let nthreads = Array.length script in
  if nthreads < 1 then bad "empty script";
  (match get "nthreads" with
  | J.Int n when n = nthreads -> ()
  | _ -> bad "nthreads does not match script");
  { name; platform; nthreads; initial; script }

(** Write a self-contained counterexample file: the schedule [prefix],
    the fault plan (schema v2 when non-empty), everything needed to
    rebuild the run ({!spec_meta}) and the expected [violation].  Pass
    the same [?races], [?watchdog], [?check] and [?model] the finding
    was run with: all are stored so {!replay_file} re-arms them.  The
    model field is omitted when it is the default, and [watchdog] with
    [oracles] (= [check]) is written only for watchdog-armed runs — a
    run without a watchdog replays with every oracle on — so a file
    found by {!explore} stays byte-identical to the original SCT format. *)
let save_finding ?(faults = []) ?(races = false) ?watchdog ?(check = true)
    ?(model = Sim.default_model) ~path ~prefix ~violation spec =
  Replay.save ~path ~faults ~prefix
    ~meta:
      (spec_meta spec
      @ [ ("violation", J.String violation); ("races", J.Bool races) ]
      @ (match watchdog with
        | Some w -> [ ("watchdog", J.Int w); ("oracles", J.Bool check) ]
        | None -> [])
      @ Engine.model_meta model)
    ()

(** Load a counterexample file — an SCT finding or a chaos finding —
    and replay it [times] times.  Returns the spec, the fault plan, the
    stored expected violation and each replay's violation (all identical
    when the reproduction is deterministic).  A file with a recorded
    [watchdog] replays under the watchdog; one without replays under the
    SCT step budget [max_steps].  Raises {!Ascy_sct.Replay.Bad_schedule}
    on any file that does not describe a run this build can replay. *)
let replay_file ?(times = 2) ?(max_steps = Explorer.default_bounds.Explorer.max_steps) path =
  let bad msg = raise (Replay.Bad_schedule msg) in
  let prefix, faults, meta = Replay.load path in
  let spec = spec_of_meta meta in
  let maker = try maker_of spec with Invalid_argument msg -> bad msg in
  if Array.exists (fun tid -> tid >= spec.nthreads) prefix then
    bad "schedule prefix names a thread the script lacks";
  List.iter
    (fun fe ->
      let what, bound =
        match fe.Sim.fe_fault with
        | Sim.F_numa_slow _ -> ("socket", spec.platform.P.sockets)
        | _ -> ("thread", spec.nthreads)
      in
      if fe.Sim.fe_tid < 0 || fe.Sim.fe_tid >= bound then
        bad
          (Printf.sprintf "fault at decision %d targets unknown %s %d" fe.Sim.fe_at what
             fe.Sim.fe_tid))
    faults;
  let bool k default = match List.assoc_opt k meta with Some (J.Bool b) -> b | _ -> default in
  let expected =
    match List.assoc_opt "violation" meta with Some (J.String s) -> Some s | _ -> None
  in
  let races = bool "races" false in
  let model = Engine.model_of_meta meta in
  let watchdog =
    match List.assoc_opt "watchdog" meta with
    | None -> None
    | Some (J.Int w) when w >= 1 -> Some w
    | Some _ -> bad "watchdog"
  in
  let replay () =
    match watchdog with
    | Some watchdog ->
        (run ~faults ~races ~model ~watchdog ~check:(bool "oracles" true) maker spec
           ~sched:(Scheduler.prefix_scheduler ~prefix ()))
          .violation
    | None -> check_prefix ~faults ~races ~model maker spec ~max_steps prefix
  in
  (spec, faults, expected, List.init times (fun _ -> replay ()))
