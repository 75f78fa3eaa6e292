(** Systematic schedule exploration: a bounded DFS over the simulator's
    resume decisions, optionally pruned with DPOR-style backtrack points
    and sleep sets.

    The explorer is re-execution based: it never snapshots simulator
    state.  Each iteration runs the program from scratch under a
    controlled scheduler that follows the choices recorded on the DFS
    stack and extends them with the default policy
    ({!Scheduler.default_choice}); the simulator's determinism guarantees
    the replayed prefix reaches exactly the same decision points.  After
    each run the deepest stack node with an unexplored alternative is
    switched and everything below it is discarded.

    Exploration is bounded by:
    - [preemptions]: schedules may deschedule a runnable thread mid-slice
      at most this many times (slice-expiry rotations are free — they are
      the default policy, required for fairness, not exploration);
    - [delays]: total deviation from the default candidate order (the sum
      over all decisions of how many better-ranked candidates the choice
      skipped, cf. delay-bounded scheduling, Emmi et al. POPL'11).  The
      delay bound must be finite for lock-based structures: continuing a
      spinning thread past its slice expiry costs no preemption, so with
      unbounded delays each explored schedule can delay the lock holder
      by one more spin iteration than the last and the space never
      closes.  A finite delay bound restores termination: past the
      budget, the fair rotation forces the holder to run;
    - [max_steps]: per-run step budget; exceeding it under the (fair)
      controlled scheduler indicates livelock or starvation and is
      reported as a failure;
    - [max_schedules]: total run budget, after which exploration stops
      and the report is marked incomplete.

    In [Dpor] mode, branching happens only where it can matter: after
    each run, every executed access is paired with the latest earlier
    conflicting access by another thread ({!Dpor.last_conflict}), and the
    later thread is scheduled for exploration at the earlier decision
    point; choices whose subtrees are fully explored go to sleep and are
    only woken by dependent steps.  [Naive] mode branches on every
    runnable thread at every step (within bounds) — exhaustive but
    exponentially larger; it exists as the ground truth the pruning is
    validated against.

    Caveat (shared with all bounded DPOR implementations, cf. dejafu's
    BPOR): with finite bounds, DPOR's backtrack points are computed from
    in-bound runs only, so the combination is a heuristic — it can miss
    interleavings a conservative bound-aware analysis would add.  With no
    bounds set it explores one schedule per Mazurkiewicz trace of every
    terminating execution. *)

module Sim = Ascy_mem.Sim
module Vec = Ascy_util.Vec

type mode = Naive | Dpor

type bounds = {
  preemptions : int option;
  delays : int option;
  max_steps : int;
  max_schedules : int option;
}

let default_bounds =
  { preemptions = Some 2; delays = Some 6; max_steps = 50_000; max_schedules = Some 50_000 }

(** Raised by the controlled scheduler when a single run exceeds
    [bounds.max_steps].  [run] callbacks must let it propagate. *)
exception Step_limit of int

(* One decision point on the DFS stack.  [prev]/[run_len]/[preempts]/
   [delays] snapshot the scheduling state *before* the decision, so
   candidate costs can be recomputed when alternatives are expanded. *)
type node = {
  runnable : Sim.runnable;  (* detached snapshot (the simulator reuses its record) *)
  prev : int;
  run_len : int;
  preempts : int;
  delays : int;
  mutable chosen : int;
  mutable action : Sim.action;  (* lookahead action of [chosen] = the step performed *)
  mutable todo : int list;  (* alternatives still to explore *)
  mutable sleep : Dpor.sleep;
  mutable explored : int list;  (* choices whose subtrees are done *)
}

type failure = {
  f_desc : string;  (** what the oracle reported *)
  f_schedule : int array;  (** the failing run's full decision sequence *)
}

type report = {
  failure : failure option;
  schedules : int;  (** complete runs executed *)
  steps : int;  (** decisions taken across all runs *)
  complete : bool;  (** the whole in-bound schedule space was explored *)
}

let dummy_node =
  {
    runnable = { Sim.rn = 0; r_tids = [||]; r_acts = [||] };
    prev = -1;
    run_len = 0;
    preempts = 0;
    delays = 0;
    chosen = -1;
    action = Sim.A_start;
    todo = [];
    sleep = Dpor.empty_sleep;
    explored = [];
  }

(** [explore ?mode ?bounds ~run ()] — [run ~sched] must execute the
    program under test from scratch inside a fresh simulation driven by
    [sched], then evaluate its oracle: [None] for a passing run, [Some
    desc] for a violation.  Exploration stops at the first failure.

    The remaining optionals turn one call into a {e task} of a
    partitioned exploration (see {!Par_explore}); all default to the
    historical whole-space behavior, byte-identically:
    - [prefix] pins the first decisions: the task owns the subtree under
      that prefix and never backtracks above it;
    - [window] bounds how deep below the prefix this task branches
      locally.  Backtrack points above the prefix or beyond the window
      are handed to [on_defer] as fully-forced prefixes (one new task
      each, deduplicated within this task) instead of being explored
      here;
    - [stop] is polled between runs: when it turns true the task
      abandons the rest of its subtree and reports incomplete (used to
      cancel siblings once any task has found a failure). *)
let explore ?(mode = Dpor) ?(bounds = default_bounds) ?(prefix = [||]) ?window ?on_defer
    ?stop ~run () =
  let stack = Vec.create ~capacity:256 dummy_node in
  let plen = Array.length prefix in
  let wlimit = match window with Some w -> plen + w | None -> max_int in
  let deferred = Hashtbl.create 16 in
  (* Hand [stack.(0..j-1); p] to the coordinator as a new task's prefix.
     Dedup by content: distinct runs of this task rediscover the same
     out-of-window backtrack points. *)
  let defer j p =
    match on_defer with
    | None -> ()
    | Some emit ->
        let pfx = Array.init (j + 1) (fun i -> if i = j then p else (Vec.get stack i).chosen) in
        let key = String.concat "," (Array.to_list (Array.map string_of_int pfx)) in
        if not (Hashtbl.mem deferred key) then begin
          Hashtbl.add deferred key ();
          emit pfx
        end
  in
  let nsched = ref 0 in
  let nsteps = ref 0 in
  let failure = ref None in
  let complete = ref true in
  let finished = ref false in
  let state_of nd = { Scheduler.prev = nd.prev; run_len = nd.run_len } in
  let in_bounds nd tid =
    (match bounds.preemptions with
    | Some p -> nd.preempts + Scheduler.preempt_cost (state_of nd) nd.runnable tid <= p
    | None -> true)
    && (match bounds.delays with
       | Some d -> nd.delays + Scheduler.delay_cost (state_of nd) nd.runnable tid <= d
       | None -> true)
  in
  let current_schedule () = Array.init (Vec.length stack) (fun i -> (Vec.get stack i).chosen) in
  while not !finished do
    (* ---- one run: follow the stack's choices, then default policy ---- *)
    let st = Scheduler.fresh_state () in
    let depth = ref 0 in
    let sched runnable =
      let d = !depth in
      incr depth;
      if d >= bounds.max_steps then raise (Step_limit d);
      let tid =
        if d < Vec.length stack then (Vec.get stack d).chosen
        else begin
          let chosen =
            if d < plen then prefix.(d) else Scheduler.default_choice st runnable
          in
          let parent = if d = 0 then None else Some (Vec.get stack (d - 1)) in
          let cost f =
            match parent with
            | None -> 0
            | Some p -> f (state_of p) p.runnable p.chosen
          in
          let node =
            {
              runnable = Sim.runnable_copy runnable;
              prev = st.Scheduler.prev;
              run_len = st.Scheduler.run_len;
              preempts =
                (match parent with None -> 0 | Some p -> p.preempts)
                + cost Scheduler.preempt_cost;
              delays =
                (match parent with None -> 0 | Some p -> p.delays) + cost Scheduler.delay_cost;
              chosen;
              action = Scheduler.action_of chosen runnable;
              todo = [];
              sleep =
                (match (mode, parent) with
                | Dpor, Some p -> Dpor.wake p.action p.sleep
                | _ -> Dpor.empty_sleep);
              explored = [];
            }
          in
          (match mode with
          | Naive when d >= plen ->
              let todo = ref [] in
              for i = Sim.runnable_count runnable - 1 downto 0 do
                let t = Sim.runnable_tid runnable i in
                if t <> chosen && in_bounds node t then
                  if d >= wlimit then defer d t else todo := t :: !todo
              done;
              node.todo <- !todo
          | Naive | Dpor -> ());
          Vec.push stack node;
          chosen
        end
      in
      Scheduler.note st tid;
      tid
    in
    let desc =
      try run ~sched
      with Step_limit d ->
        Some (Printf.sprintf "step limit %d exceeded (possible livelock or starvation)" d)
    in
    incr nsched;
    nsteps := !nsteps + Vec.length stack;
    (match desc with
    | Some d ->
        failure := Some { f_desc = d; f_schedule = current_schedule () };
        complete := false;
        finished := true
    | None -> (
        (* ---- DPOR: add backtrack points from this run's conflicts ---- *)
        (if mode = Dpor then begin
           let n = Vec.length stack in
           let steps =
             Array.init n (fun i ->
                 let nd = Vec.get stack i in
                 (nd.chosen, nd.action))
           in
           let stutters = Dpor.stutter_flags steps in
           for i = 1 to n - 1 do
             let ni = Vec.get stack i in
             match ni.action with
             | Sim.A_access _ when not stutters.(i) -> (
                 match Dpor.last_conflict ~skip:(fun j -> stutters.(j)) steps i with
                 | Some j ->
                     let nj = Vec.get stack j in
                     let p = ni.chosen in
                     if
                       p <> nj.chosen
                       && Scheduler.index_of p nj.runnable >= 0
                       && in_bounds nj p
                     then
                       if j < plen || j >= wlimit then defer j p
                       else if
                         (not (List.mem p nj.explored)) && not (List.mem p nj.todo)
                       then nj.todo <- p :: nj.todo
                 | None -> ())
             | _ -> ()
           done
         end);
        (match bounds.max_schedules with
        | Some budget when !nsched >= budget ->
            complete := false;
            finished := true
        | _ -> ());
        (match stop with
        | Some cancelled when cancelled () ->
            complete := false;
            finished := true
        | _ -> ());
        (* ---- backtrack: deepest node with a live alternative ---- *)
        if not !finished then begin
          let rec backtrack d =
            if d < plen then None
            else begin
              let nd = Vec.get stack d in
              nd.explored <- nd.chosen :: nd.explored;
              if mode = Dpor then nd.sleep <- Dpor.add_sleep nd.chosen nd.action nd.sleep;
              let rec pick () =
                match nd.todo with
                | [] -> None
                | t :: rest ->
                    nd.todo <- rest;
                    if mode = Dpor && Dpor.in_sleep t nd.sleep then pick () else Some t
              in
              match pick () with
              | Some t ->
                  nd.chosen <- t;
                  nd.action <- Scheduler.action_of t nd.runnable;
                  Vec.truncate stack (d + 1);
                  Some ()
              | None -> backtrack (d - 1)
            end
          in
          match backtrack (Vec.length stack - 1) with
          | Some () -> ()
          | None -> finished := true (* in-bound space exhausted *)
        end))
  done;
  { failure = !failure; schedules = !nsched; steps = !nsteps; complete = !complete }

(* ------------------------------------------------------------------ *)
(* Exploration policies                                                 *)
(* ------------------------------------------------------------------ *)

(** How schedules are chosen.  [Exhaustive] is the DFS above (DPOR or
    naive, per [?mode]) — it proves a bounded space clean.  The
    randomized policies trade that proof for volume: each draws
    [schedules] schedules from a seeded distribution, so coverage per
    wall-clock second scales with budget (and, through {!Par_explore},
    with domain count) on spaces far too large to close.

    Every randomized schedule is recorded in full, so counterexamples
    flow through the same minimize/replay pipeline as exhaustive ones.
    Determinism contract: the outcome of schedule index [i] is a
    function of the policy's seed and [i] alone — per-index RNG streams
    are derived with {!Ascy_util.Xorshift.split} in a fixed chunked
    order — so verdicts and counterexamples are identical no matter how
    many domains execute the budget, and a multi-index failure always
    reports the {e lowest} failing index. *)
type policy =
  | Exhaustive
  | Random of { seed : int; schedules : int }
      (** uniform choice among non-spinning runnable threads *)
  | Pct of { seed : int; depth : int; schedules : int }
      (** priority-based with [depth - 1] change points
          ({!Scheduler.pct_chooser}); finds bugs of depth [depth] with
          probability >= 1/(n·k^(depth-1)) per schedule *)
  | Swarm of { seeds : int list; schedules : int }
      (** [schedules] sticky-random schedules per seed, each seed with
          its own temperament ({!Scheduler.sticky_chooser}) *)

let policy_name = function
  | Exhaustive -> "exhaustive"
  | Random _ -> "random"
  | Pct _ -> "pct"
  | Swarm _ -> "swarm"

let policy_names = [ "exhaustive"; "random"; "pct"; "swarm" ]

(** The policy a command line names (the inverse of {!policy_name}):
    [budget] schedules in all, which [swarm] splits over [swarm_seeds]
    consecutive seeds from [seed]. *)
let policy_of_name ~seed ~budget ~pct_depth ~swarm_seeds = function
  | "exhaustive" -> Exhaustive
  | "random" -> Random { seed; schedules = budget }
  | "pct" -> Pct { seed; depth = pct_depth; schedules = budget }
  | "swarm" ->
      let seeds = List.init swarm_seeds (fun i -> seed + i) in
      Swarm { seeds; schedules = max 1 (budget / swarm_seeds) }
  | p -> invalid_arg ("unknown policy: " ^ p)

(** Schedule indices are planned in fixed chunks of this size; each
    chunk is one unit of parallel work.  Part of the determinism
    contract — chunk [c]'s RNG stream is the [c]-th split of the
    policy seed's master generator, whoever executes it. *)
let chunk_size = 32

type rand_kind =
  | R_uniform
  | R_pct of { depth : int; length : int }
  | R_sticky of float

type rand_task = {
  rt_base : int;  (** global index of the chunk's first schedule *)
  rt_count : int;
  rt_stream : Ascy_util.Xorshift.t;  (** chunk stream; one split per index *)
  rt_kind : rand_kind;
}

(* Swarm temperaments: each seed draws its continue-probability from
   this palette, spanning churn-heavy to quasi-sequential. *)
let swarm_palette = [| 0.0; 0.3; 0.6; 0.9 |]

(** The full, deterministic chunk plan of a randomized policy.
    [probe_len] is the default-policy run length (PCT's [k] estimate,
    from {!probe_run}). *)
let rand_plan ~policy ~probe_len =
  let chunks ~base ~total ~master ~kind =
    let rec go start acc =
      if start >= total then List.rev acc
      else begin
        let count = min chunk_size (total - start) in
        let stream = Ascy_util.Xorshift.split master in
        go (start + count)
          ({ rt_base = base + start; rt_count = count; rt_stream = stream; rt_kind = kind }
          :: acc)
      end
    in
    go 0 []
  in
  match policy with
  | Exhaustive -> invalid_arg "Explorer.rand_plan: Exhaustive has no random plan"
  | Random { seed; schedules } ->
      chunks ~base:0 ~total:schedules ~master:(Ascy_util.Xorshift.create seed) ~kind:R_uniform
  | Pct { seed; depth; schedules } ->
      chunks ~base:0 ~total:schedules
        ~master:(Ascy_util.Xorshift.create seed)
        ~kind:(R_pct { depth; length = probe_len })
  | Swarm { seeds; schedules } ->
      List.concat
        (List.mapi
           (fun si seed ->
             let master = Ascy_util.Xorshift.create seed in
             let p =
               swarm_palette.(Ascy_util.Xorshift.below master (Array.length swarm_palette))
             in
             chunks ~base:(si * schedules) ~total:schedules ~master ~kind:(R_sticky p))
           seeds)

(* One recorded run under [chooser]: the failure description (if any),
   the full decision sequence, and the step count. *)
let controlled_run ~bounds ~chooser ~run =
  let trace = Vec.create ~capacity:256 0 in
  let sched runnable =
    let d = Vec.length trace in
    if d >= bounds.max_steps then raise (Step_limit d);
    let tid = chooser runnable in
    Vec.push trace tid;
    tid
  in
  let desc =
    try run ~sched
    with Step_limit d ->
      Some (Printf.sprintf "step limit %d exceeded (possible livelock or starvation)" d)
  in
  (desc, Vec.to_array trace, Vec.length trace)

(** One run under the default policy: the randomized planner's
    run-length estimate, and a free verdict on the default schedule
    (counted as schedule index "probe", before index 0). *)
let probe_run ~bounds ~run =
  controlled_run ~bounds ~chooser:(Scheduler.prefix_scheduler ~prefix:[||] ()) ~run

type rand_result = {
  rr_failure : (int * failure) option;
      (** lowest failing schedule index within the chunk, with its run *)
  rr_schedules : int;
  rr_steps : int;
}

(** Execute one chunk.  Index [rt_base + i] runs under a chooser built
    from the [i]-th split of the chunk stream, so each index's outcome
    is independent of every other index and of who executes the chunk.
    Indices run in ascending order and the chunk stops at its first
    failure; [skip_from] prunes indices already beaten by a lower
    failing index found elsewhere. *)
let exec_rand_task ?(skip_from = fun () -> max_int) ~bounds ~run task =
  let failure = ref None in
  let nsched = ref 0 and nsteps = ref 0 in
  (try
     for i = 0 to task.rt_count - 1 do
       let rng = Ascy_util.Xorshift.split task.rt_stream in
       let idx = task.rt_base + i in
       if idx >= skip_from () then raise Exit;
       let chooser =
         match task.rt_kind with
         | R_uniform -> Scheduler.uniform_chooser rng
         | R_pct { depth; length } -> Scheduler.pct_chooser rng ~depth ~length
         | R_sticky p -> Scheduler.sticky_chooser rng ~p_continue:p
       in
       let desc, sched, steps = controlled_run ~bounds ~chooser ~run in
       incr nsched;
       nsteps := !nsteps + steps;
       match desc with
       | Some d ->
           failure := Some (idx, { f_desc = d; f_schedule = sched });
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  { rr_failure = !failure; rr_schedules = !nsched; rr_steps = !nsteps }

(** [explore_policy ?mode ?bounds ~policy ~run ()] — the sequential
    policy driver: [Exhaustive] delegates to {!explore}; a randomized
    policy runs one default-policy probe and then the planned indices
    in ascending order, stopping at the first failure.  Randomized
    exploration never proves a space exhausted, so its report is always
    marked incomplete. *)
let explore_policy ?(mode = Dpor) ?(bounds = default_bounds) ~policy ~run () =
  match policy with
  | Exhaustive -> explore ~mode ~bounds ~run ()
  | _ -> (
      let probe_desc, probe_sched, probe_steps = probe_run ~bounds ~run in
      match probe_desc with
      | Some d ->
          {
            failure = Some { f_desc = d; f_schedule = probe_sched };
            schedules = 1;
            steps = probe_steps;
            complete = false;
          }
      | None ->
          let failure = ref None in
          let nsched = ref 1 and nsteps = ref probe_steps in
          List.iter
            (fun task ->
              if !failure = None then begin
                let r = exec_rand_task ~bounds ~run task in
                nsched := !nsched + r.rr_schedules;
                nsteps := !nsteps + r.rr_steps;
                match r.rr_failure with Some (_, f) -> failure := Some f | None -> ()
              end)
            (rand_plan ~policy ~probe_len:probe_steps);
          { failure = !failure; schedules = !nsched; steps = !nsteps; complete = false })
