(** Parallel schedule exploration: the DPOR backtracking frontier (or a
    randomized policy's schedule budget) partitioned across OCaml 5
    domains.

    The explorer is re-execution based and never snapshots simulator
    state, so any subtree of the DFS is reproducible from its root
    prefix alone — that is the unit of parallel work.  A {e task} is a
    fully-forced decision prefix; a worker explores the subtree under it
    with {!Explorer.explore}, branching locally only within a bounded
    window below the prefix and handing every other backtrack point
    (above the prefix, or deeper than the window) back to the shared
    frontier as a new task.  The task set is therefore a deterministic
    least fixed point of the defer relation: which tasks exist — and
    what each contributes, since a task's exploration depends only on
    its prefix — is invariant under worker count and scheduling order.
    Verdicts {e and} schedule-space sizes are identical at 1 and N
    domains; only wall-clock changes.

    Two deliberate deviations from the sequential explorer, both sound:
    - sleep sets and visited state are merged only at task boundaries
      (the spawn-side dedup table); sleep-set pruning {e within} a task
      cannot see sibling tasks' history, so the partitioned exploration
      may visit more Mazurkiewicz representatives than the sequential
      DFS — never fewer;
    - [bounds.max_schedules] applies per task, not globally (a global
      cutoff would make counts depend on completion order).

    When any task fails, siblings are cancelled and the {e canonical}
    counterexample is recomputed by the plain sequential explorer —
    sleep-set pruning only ever skips schedules trace-equivalent to an
    explored one, so a space with a reachable failure fails sequentially
    too, and every domain count reports the byte-identical finding.

    Randomized policies parallelize by chunk ({!Explorer.rand_task}):
    per-index RNG streams are pre-split from the policy seed in a fixed
    order, so each schedule index's outcome is independent of who runs
    it; workers race only on {e which} failing index is the lowest, and
    losers are cancelled, so the reported counterexample is again
    domain-count invariant.

    The frontier itself is per-worker queues behind one lock with
    steal-on-empty — at this task granularity (a task re-executes whole
    program runs, milliseconds each) lock traffic is noise and a
    lock-free Chase-Lev deque would buy nothing. *)

module Explorer = Explorer

type preport = {
  p_report : Explorer.report;
  p_tasks : int;  (** units of work executed (subtree prefixes or chunks) *)
  p_domains : int;
}

(** Local-branching window: how many decisions below its prefix a task
    branches without deferring.  Deep enough that leaf subtrees amortize
    a run's cost, shallow enough that the frontier fans out. *)
let window = 6

(* ------------------------------------------------------------------ *)
(* Work pool                                                           *)
(* ------------------------------------------------------------------ *)

(* Run [process] over [seed_tasks] and everything it pushes, on
   [domains] workers.  With one domain everything runs inline on the
   calling domain — no spawn, same fixed point.  Worker exceptions are
   captured, the pool drains, and the first exception re-raises on the
   caller. *)
let run_pool ~domains ~seed_tasks ~process =
  if domains <= 1 then begin
    let stack = ref seed_tasks in
    let push t = stack := t :: !stack in
    let rec loop () =
      match !stack with
      | [] -> ()
      | t :: rest ->
          stack := rest;
          process ~push t;
          loop ()
    in
    loop ()
  end
  else begin
    let m = Mutex.create () in
    let cv = Condition.create () in
    let queues = Array.init domains (fun _ -> Queue.create ()) in
    let pending = ref 0 in
    let failed : exn option ref = ref None in
    List.iteri
      (fun i t ->
        incr pending;
        Queue.push t queues.(i mod domains))
      seed_tasks;
    (* own queue first, then steal round-robin *)
    let take w =
      Mutex.lock m;
      let rec wait () =
        if !failed <> None then None
        else begin
          let rec scan i =
            if i >= domains then None
            else begin
              let q = queues.((w + i) mod domains) in
              if Queue.is_empty q then scan (i + 1) else Some (Queue.pop q)
            end
          in
          match scan 0 with
          | Some t -> Some t
          | None ->
              if !pending = 0 then None
              else begin
                Condition.wait cv m;
                wait ()
              end
        end
      in
      let r = wait () in
      Mutex.unlock m;
      r
    in
    let push w t =
      Mutex.lock m;
      incr pending;
      Queue.push t queues.(w);
      Condition.signal cv;
      Mutex.unlock m
    in
    let finish_one () =
      Mutex.lock m;
      decr pending;
      if !pending = 0 then Condition.broadcast cv;
      Mutex.unlock m
    in
    let worker w () =
      let rec loop () =
        match take w with
        | None -> ()
        | Some t ->
            (try process ~push:(push w) t
             with e ->
               Mutex.lock m;
               if !failed = None then failed := Some e;
               Condition.broadcast cv;
               Mutex.unlock m);
            finish_one ();
            loop ()
      in
      loop ()
    in
    let ds = Array.init domains (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join ds;
    match !failed with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Partitioned exploration                                             *)
(* ------------------------------------------------------------------ *)

let prefix_key pfx = String.concat "," (Array.to_list (Array.map string_of_int pfx))

(* Exhaustive (DPOR/naive) partitioned over subtree-prefix tasks. *)
let explore_exhaustive ~mode ~bounds ~domains ~run =
  let m = Mutex.create () in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.add visited "" ();
  let nsched = ref 0 and nsteps = ref 0 and ntasks = ref 0 in
  let all_complete = ref true in
  let found = Atomic.make false in
  let first_failure = ref None in
  let process ~push prefix =
    let on_defer pfx =
      let key = prefix_key pfx in
      Mutex.lock m;
      let fresh = not (Hashtbl.mem visited key) in
      if fresh then Hashtbl.add visited key ();
      Mutex.unlock m;
      if fresh then push pfx
    in
    let r =
      Explorer.explore ~mode ~bounds ~prefix ~window ~on_defer
        ~stop:(fun () -> Atomic.get found)
        ~run ()
    in
    Mutex.lock m;
    incr ntasks;
    nsched := !nsched + r.Explorer.schedules;
    nsteps := !nsteps + r.Explorer.steps;
    if not r.Explorer.complete then all_complete := false;
    (match r.Explorer.failure with
    | Some f ->
        if !first_failure = None then first_failure := Some f;
        Atomic.set found true
    | None -> ());
    Mutex.unlock m
  in
  run_pool ~domains ~seed_tasks:[ [||] ] ~process;
  let report =
    if Atomic.get found then begin
      (* canonical counterexample: recompute sequentially, so the
         finding (and the whole report) is domain-count invariant *)
      let r = Explorer.explore ~mode ~bounds ~run () in
      match r.Explorer.failure with
      | Some _ -> r
      | None ->
          (* bounded-budget edge: the parallel partition reached a
             failure the sequential budget did not; keep the parallel
             witness rather than mask it *)
          {
            Explorer.failure = !first_failure;
            schedules = !nsched;
            steps = !nsteps;
            complete = false;
          }
    end
    else
      {
        Explorer.failure = None;
        schedules = !nsched;
        steps = !nsteps;
        complete = !all_complete;
      }
  in
  { p_report = report; p_tasks = !ntasks; p_domains = domains }

(* A randomized policy partitioned over its (pre-split) chunk plan. *)
let explore_random ~bounds ~policy ~domains ~run =
  let probe_desc, probe_sched, probe_steps = Explorer.probe_run ~bounds ~run in
  match probe_desc with
  | Some d ->
      {
        p_report =
          {
            Explorer.failure = Some { Explorer.f_desc = d; f_schedule = probe_sched };
            schedules = 1;
            steps = probe_steps;
            complete = false;
          };
        p_tasks = 0;
        p_domains = domains;
      }
  | None ->
      let tasks = Explorer.rand_plan ~policy ~probe_len:probe_steps in
      let m = Mutex.create () in
      let min_idx = Atomic.make max_int in
      let failures = ref [] in
      let nsched = ref 1 and nsteps = ref probe_steps and ntasks = ref 0 in
      let process ~push:_ task =
        if task.Explorer.rt_base < Atomic.get min_idx then begin
          let r =
            Explorer.exec_rand_task
              ~skip_from:(fun () -> Atomic.get min_idx)
              ~bounds ~run task
          in
          Mutex.lock m;
          incr ntasks;
          nsched := !nsched + r.Explorer.rr_schedules;
          nsteps := !nsteps + r.Explorer.rr_steps;
          (match r.Explorer.rr_failure with
          | Some (idx, f) ->
              failures := (idx, f) :: !failures;
              (* fetch-min: losers at higher indices get cancelled *)
              let rec shrink () =
                let cur = Atomic.get min_idx in
                if idx < cur && not (Atomic.compare_and_set min_idx cur idx) then shrink ()
              in
              shrink ()
          | None -> ());
          Mutex.unlock m
        end
      in
      run_pool ~domains ~seed_tasks:tasks ~process;
      let failure =
        match List.sort (fun (a, _) (b, _) -> compare a b) !failures with
        | (_, f) :: _ -> Some f
        | [] -> None
      in
      {
        p_report =
          { Explorer.failure; schedules = !nsched; steps = !nsteps; complete = false };
        p_tasks = !ntasks;
        p_domains = domains;
      }

(** [explore ?mode ?bounds ?policy ?domains ~run ()] — the
    partitioned exploration engine.  Always runs the task machinery
    (inline when [domains = 1]), so 1-vs-N determinism is testable;
    callers that want the plain sequential explorer for [domains = 1]
    should go through {!dispatch}. *)
let explore ?(mode = Explorer.Dpor) ?(bounds = Explorer.default_bounds)
    ?(policy = Explorer.Exhaustive) ?(domains = 1) ~run () =
  match policy with
  | Explorer.Exhaustive -> explore_exhaustive ~mode ~bounds ~domains ~run
  | _ -> explore_random ~bounds ~policy ~domains ~run

(** [dispatch ?mode ?bounds ?policy ?domains ~run ()] — the harness
    entry point: route a (policy, domains) configuration to the
    cheapest engine that honors it.  Single-domain exhaustive runs use
    the plain sequential explorer byte-identically (no task machinery,
    no per-task budget semantics); everything else is partitioned — a
    single-domain randomized run is the chunk plan executed inline in
    ascending order, stopping at the first failure. *)
let dispatch ?mode ?bounds ?(policy = Explorer.Exhaustive) ?(domains = 1) ~run () =
  match (policy, domains) with
  | Explorer.Exhaustive, d when d <= 1 -> Explorer.explore ?mode ?bounds ~run ()
  | _ -> (explore ?mode ?bounds ~policy ~domains ~run ()).p_report
