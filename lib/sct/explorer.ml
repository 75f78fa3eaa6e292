(** Systematic schedule exploration: a bounded DFS over the simulator's
    resume decisions, optionally pruned with DPOR-style backtrack points
    and sleep sets.

    The explorer is re-execution based: it never snapshots simulator
    state.  Each iteration runs the program from scratch under a
    controlled scheduler that follows the choices recorded on the DFS
    path and extends them with the default policy
    ({!Scheduler.default_choice}); the simulator's determinism guarantees
    the replayed prefix reaches exactly the same decision points.  After
    each run the deepest decision with an unexplored alternative is
    switched and everything below it is discarded.

    The path is a set of flat per-depth arrays, not a stack of node
    records: slot [d] holds the chosen tid, the length of the previous
    thread's run before the decision, the preemptions and delays
    spent through it, its DPOR mark and action (an int code, so that
    recording it stores no pointer), and its todo, explored and sleep
    sets; one arena holds every slot's runnable tids.  Each
    call to {!explore} makes one path and reuses it across its runs, so
    a run allocates no path storage once the arrays are large enough.

    The default choice is free.  A decision that a run reaches for the
    first time takes the default policy's choice, the head of
    {!Scheduler.candidate_order}: by construction it costs no
    preemption and no delay, so its slot adds 0 to both budgets and
    reads its action straight from the runnable set.  The cost
    functions run only for a choice a backtrack switches (from the
    slot's snapshot) and for DPOR's candidate backtrack points.  A
    switched slot's action is read when the next run replays to it.

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

    In [Dpor] mode, branching happens only where it can matter: every
    access a run {e adds} — the steps from the last backtrack point
    down — is pushed, as the run takes it, onto an undoable per-line
    conflict index ({!Dpor.step}), which pairs it with the latest
    earlier conflicting access by another thread, and the later thread
    is scheduled for exploration at the earlier decision point.  The
    steps above the backtrack point replay unchanged and their
    backtrack points are already added, so a run's bookkeeping costs
    O(new steps × threads); backtracking rewinds the index with
    {!Dpor.undo_to}.  A failing run ends the exploration, so indexing
    before the oracle has judged the run wastes nothing.
    Choices whose subtrees are fully explored go to sleep and are only
    woken by dependent steps.  [Naive] mode branches on every
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

(* The DFS path, column-wise: slot [d] of every array describes the
   decision at depth [d].  The scheduling state {e before} it, which
   prices alternatives when they are expanded, is [chosen.(d - 1)] (the
   previous thread) and [run_len.(d)]. *)
type path = {
  mutable len : int;  (* decisions on the path *)
  mutable chosen : int array;
  mutable run_len : int array;
  mutable preempts : int array;  (* preemptions spent by decisions [0..d] *)
  mutable delays : int array;  (* delays spent by decisions [0..d] *)
  mutable mark : int array;  (* DPOR index position before the step was pushed *)
  mutable action : int array;  (* the step performed, as an {!action_code} *)
  mutable kcas : int array array;  (* a k-CAS step's lines *)
  mutable todo : int list array;  (* alternatives still to explore *)
  mutable explored : int list array;  (* choices whose subtrees are done *)
  mutable sleep : Dpor.sleep array;
  (* the runnable snapshots: slot [d]'s [snap_n.(d)] tids, ascending,
     from [d * stride] (stride = thread count) *)
  mutable stride : int;
  mutable snap_n : int array;
  mutable snap_tid : int array;
  (* scratch for one snapshot in record form, for the {!Scheduler} cost
     functions (which read no actions) *)
  mutable view : Sim.runnable;
}

let new_path () =
  {
    len = 0;
    chosen = [||];
    run_len = [||];
    preempts = [||];
    delays = [||];
    mark = [||];
    action = [||];
    kcas = [||];
    todo = [||];
    explored = [||];
    sleep = [||];
    stride = 0;
    snap_n = [||];
    snap_tid = [||];
    view = { Sim.rn = 0; r_tids = [||]; r_acts = [||] };
  }

let grow p =
  let cap = max 256 (2 * Array.length p.chosen) in
  let ext a fill len =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  p.chosen <- ext p.chosen 0 cap;
  p.run_len <- ext p.run_len 0 cap;
  p.preempts <- ext p.preempts 0 cap;
  p.delays <- ext p.delays 0 cap;
  p.mark <- ext p.mark 0 cap;
  p.action <- ext p.action 0 cap;
  p.kcas <- ext p.kcas [||] cap;
  p.todo <- ext p.todo [] cap;
  p.explored <- ext p.explored [] cap;
  p.sleep <- ext p.sleep Dpor.empty_sleep cap;
  p.snap_n <- ext p.snap_n 0 cap;
  p.snap_tid <- ext p.snap_tid 0 (cap * p.stride)

(* Slot [d]'s step [a] as an int, so that recording a step stores no
   pointer: an access is [line lsl 3 lor kind] (kinds 0-2), work
   [n lsl 3 lor 3], a start 4, and a k-CAS 5 with its lines in
   [p.kcas.(d)]. *)
let action_code p d (a : Sim.action) =
  match a with
  | Sim.A_access (Sim.Read, l) -> l lsl 3
  | Sim.A_access (Sim.Write, l) -> (l lsl 3) lor 1
  | Sim.A_access (Sim.Rmw, l) -> (l lsl 3) lor 2
  | Sim.A_work n -> (n lsl 3) lor 3
  | Sim.A_start -> 4
  | Sim.A_kcas lines ->
      p.kcas.(d) <- lines;
      5

(* The step recorded at slot [d], back as an action. *)
let action p d =
  let c = p.action.(d) in
  match c land 7 with
  | 0 -> Sim.A_access (Sim.Read, c asr 3)
  | 1 -> Sim.A_access (Sim.Write, c asr 3)
  | 2 -> Sim.A_access (Sim.Rmw, c asr 3)
  | 3 -> Sim.A_work (c asr 3)
  | 4 -> Sim.A_start
  | _ -> Sim.A_kcas p.kcas.(d)

(* Size the snapshot arena for [threads] threads (kept when unchanged). *)
let set_stride p threads =
  if threads <> p.stride then begin
    p.stride <- threads;
    p.snap_tid <- Array.make (Array.length p.chosen * threads) 0;
    p.view <- { Sim.rn = 0; r_tids = Array.make threads 0; r_acts = Array.make threads Sim.A_start }
  end

(** [explore ?mode ?bounds ~run ()] — [run ~sched] must execute the
    program under test from scratch inside a fresh simulation driven by
    [sched], then evaluate its oracle: [None] for a passing run, [Some
    desc] for a violation.  Exploration stops at the first failure. *)
let explore ?(mode = Dpor) ?(bounds = default_bounds) ~run () =
  let p = new_path () in
  let nsched = ref 0 in
  let nsteps = ref 0 in
  let failure = ref None in
  let complete = ref true in
  let finished = ref false in
  (* DPOR's conflict index over the path, and the first step of the
     current run it has not seen: steps above the last backtrack point
     replay unchanged, and their backtrack points are already added *)
  let index = ref None in
  let first_new = ref 0 in
  (* slot [d]'s runnable snapshot as a record *)
  let view d =
    let v = p.view and n = p.snap_n.(d) and base = d * p.stride in
    for i = 0 to n - 1 do
      v.Sim.r_tids.(i) <- p.snap_tid.(base + i)
    done;
    v.Sim.rn <- n;
    v
  in
  (* the budget in [spent] used above depth [d], and the thread that
     ran before it *)
  let above spent d = if d = 0 then 0 else spent.(d - 1) in
  let prev d = if d = 0 then -1 else p.chosen.(d - 1) in
  (* may [tid], runnable in [r], be chosen at depth [d] instead? *)
  let in_bounds d r tid =
    (match bounds.preemptions with
    | Some b ->
        above p.preempts d
        + Scheduler.preempt_cost ~prev:(prev d) ~run_len:p.run_len.(d) r tid
        <= b
    | None -> true)
    && (match bounds.delays with
       | Some b ->
           above p.delays d + Scheduler.delay_cost ~prev:(prev d) ~run_len:p.run_len.(d) r tid
           <= b
       | None -> true)
  in
  (* Charge [chosen.(d)]'s costs, from [r], the runnable set at [d]. *)
  let charge d r =
    let t = p.chosen.(d) and prev = prev d and run_len = p.run_len.(d) in
    p.preempts.(d) <- above p.preempts d + Scheduler.preempt_cost ~prev ~run_len r t;
    p.delays.(d) <- above p.delays d + Scheduler.delay_cost ~prev ~run_len r t
  in
  (* DPOR: [t] conflicts with the step taken at depth [j]; explore it
     there if it was runnable and fits the bounds *)
  let add_backtrack j t =
    if t <> p.chosen.(j) then begin
      let v = view j in
      if
        Scheduler.index_of t v >= 0
        && in_bounds j v t
        && (not (List.mem t p.explored.(j)))
        && not (List.mem t p.todo.(j))
      then p.todo.(j) <- t :: p.todo.(j)
    end
  in
  (* DPOR: push step [d], action [a], onto the conflict index, and
     schedule its reversal with its last conflict.  Done as the run
     takes the step, not after it: a failing run ends the exploration,
     so the index never needs the steps of a run that fails. *)
  let index_step d a =
    let ix =
      match !index with
      | Some ix -> ix
      | None ->
          let ix = Dpor.create_index ~threads:p.stride in
          index := Some ix;
          ix
    in
    p.mark.(d) <- Dpor.mark ix;
    let j = Dpor.step ix d p.chosen.(d) a in
    match a with Sim.A_access _ when j >= 0 -> add_backtrack j p.chosen.(d) | _ -> ()
  in
  (* Record the decision at depth [d], reached for the first time, and
     return its choice: the default policy's, which is free. *)
  let push st (r : Sim.runnable) d =
    if d = Array.length p.chosen then grow p;
    if d = 0 then set_stride p (Array.length r.Sim.r_acts);
    let n = r.Sim.rn and base = d * p.stride in
    for i = 0 to n - 1 do
      p.snap_tid.(base + i) <- r.Sim.r_tids.(i)
    done;
    p.snap_n.(d) <- n;
    p.run_len.(d) <- st.Scheduler.run_len;
    let chosen = Scheduler.default_choice st r in
    let a = r.Sim.r_acts.(chosen) in
    p.chosen.(d) <- chosen;
    p.action.(d) <- action_code p d a;
    p.preempts.(d) <- above p.preempts d;
    p.delays.(d) <- above p.delays d;
    (* a dropped slot's sets are usually already empty: testing first
       skips the write barrier *)
    if p.explored.(d) != [] then p.explored.(d) <- [];
    if p.todo.(d) != [] then p.todo.(d) <- [];
    p.len <- d + 1;
    (match mode with
    | Dpor ->
        let sleep =
          match d with
          | 0 -> Dpor.empty_sleep
          | _ -> ( match p.sleep.(d - 1) with [] -> [] | s -> Dpor.wake (action p (d - 1)) s)
        in
        if p.sleep.(d) != sleep then p.sleep.(d) <- sleep;
        index_step d a
    | Naive ->
        if p.sleep.(d) != [] then p.sleep.(d) <- [];
        let todo = ref [] in
        for i = n - 1 downto 0 do
          let t = r.Sim.r_tids.(i) in
          if t <> chosen && in_bounds d r t then todo := t :: !todo
        done;
        p.todo.(d) <- !todo);
    chosen
  in
  (* the next live alternative at depth [d], or -1 *)
  let rec pick d =
    match p.todo.(d) with
    | [] -> -1
    | t :: rest ->
        p.todo.(d) <- rest;
        if mode = Dpor && Dpor.in_sleep t p.sleep.(d) then pick d else t
  in
  (* Switch depth [d] to [t] and drop everything below it.  Its action
     is read when the next run reaches it: replaying the path brings
     back the same runnable set. *)
  let switch d t =
    p.chosen.(d) <- t;
    charge d (view d);
    (match !index with Some ix -> Dpor.undo_to ix p.mark.(d) | None -> ());
    first_new := d;
    p.len <- d + 1
  in
  (* The deepest slot with a live alternative, switched to it; false
     when the in-bound space is exhausted.  A slot with nothing left to
     try is dropped as it is: its explored and sleep sets die with it. *)
  let rec backtrack d =
    if d < 0 then false
    else
      match p.todo.(d) with
      | [] -> backtrack (d - 1)
      | _ -> (
          let c = p.chosen.(d) in
          p.explored.(d) <- c :: p.explored.(d);
          if mode = Dpor then p.sleep.(d) <- Dpor.add_sleep c (action p d) p.sleep.(d);
          match pick d with
          | -1 -> backtrack (d - 1)
          | t ->
              switch d t;
              true)
  in
  while not !finished do
    (* ---- one run: follow the path's choices, then default policy ---- *)
    let st = Scheduler.fresh_state () in
    let depth = ref 0 in
    let sched runnable =
      let d = !depth in
      depth := d + 1;
      if d >= bounds.max_steps then raise (Step_limit d);
      let tid =
        if d < p.len then begin
          let t = p.chosen.(d) in
          if d = !first_new then begin
            let a = runnable.Sim.r_acts.(t) in
            p.action.(d) <- action_code p d a;
            if mode = Dpor then index_step d a
          end;
          t
        end
        else push st runnable d
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
    nsteps := !nsteps + p.len;
    match desc with
    | Some d ->
        failure := Some { f_desc = d; f_schedule = Array.sub p.chosen 0 p.len };
        complete := false;
        finished := true
    | None ->
        (match bounds.max_schedules with
        | Some budget when !nsched >= budget ->
            complete := false;
            finished := true
        | _ -> ());
        (* ---- backtrack: deepest node with a live alternative ---- *)
        if (not !finished) && not (backtrack (p.len - 1)) then
          finished := true (* in-bound space exhausted *)
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
      (** uniform choice among the runnable threads
          ({!Scheduler.uniform_chooser}) *)
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
