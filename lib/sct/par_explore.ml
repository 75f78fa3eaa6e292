(** Parallel schedule exploration: a randomized policy's schedule budget
    partitioned across OCaml 5 domains.

    Exhaustive exploration has one engine, the sequential DPOR search of
    {!Explorer.explore}, at every domain count: a policy of [Exhaustive]
    returns its report whatever [domains] says.  Its runs share the DFS
    path, the sleep sets and the conflict index, so cutting the search
    into independent subtrees costs more schedules than a second core
    gives back.

    Randomized policies parallelize by chunk ({!Explorer.rand_task}):
    per-index RNG streams are pre-split from the policy seed in a fixed
    order, so each schedule index's outcome is independent of who runs
    it; workers race only on {e which} failing index is the lowest, and
    losers are cancelled, so the reported counterexample is domain-count
    invariant.

    The chunk plan is a fixed array that nothing extends, so the pool is
    one atomic cursor over it: each worker takes the next chunk with a
    fetch-and-add until the plan runs out.  The calling domain is worker
    0 and [domains - 1] more are spawned. *)

module Explorer = Explorer

type preport = { p_report : Explorer.report }

(* Run [process] over every task of [tasks] on [domains] workers, the
   caller among them.  Once a task raises, no worker takes another, and
   the first exception re-raises on the caller. *)
let run_pool ~domains ~tasks ~process =
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length tasks && Option.is_none (Atomic.get failed) then
      match process tasks.(i) with
      | () -> worker ()
      | exception e -> ignore (Atomic.compare_and_set failed None (Some e))
  in
  let ds = List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  Option.iter raise (Atomic.get failed)

(* A randomized policy partitioned over its (pre-split) chunk plan. *)
let explore_random ~bounds ~policy ~domains ~run =
  let probe_desc, probe_sched, probe_steps = Explorer.probe_run ~bounds ~run in
  match probe_desc with
  | Some d ->
      {
        Explorer.failure = Some { Explorer.f_desc = d; f_schedule = probe_sched };
        schedules = 1;
        steps = probe_steps;
        complete = false;
      }
  | None ->
      let tasks = Array.of_list (Explorer.rand_plan ~policy ~probe_len:probe_steps) in
      let m = Mutex.create () in
      let min_idx = Atomic.make max_int in
      let failures = ref [] in
      let nsched = ref 1 and nsteps = ref probe_steps in
      let process task =
        if task.Explorer.rt_base < Atomic.get min_idx then begin
          let r =
            Explorer.exec_rand_task
              ~skip_from:(fun () -> Atomic.get min_idx)
              ~bounds ~run task
          in
          Mutex.lock m;
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
      run_pool ~domains ~tasks ~process;
      let failure =
        match List.sort (fun (a, _) (b, _) -> compare a b) !failures with
        | (_, f) :: _ -> Some f
        | [] -> None
      in
      { Explorer.failure; schedules = !nsched; steps = !nsteps; complete = false }

(** [explore ?mode ?bounds ?policy ?domains ~run ()] — run [policy] on
    [domains] worker domains.  [Exhaustive] is {!Explorer.explore}
    whatever [domains] says; a randomized policy runs its chunk plan,
    inline in ascending order at one domain, stopping at the first
    failure. *)
let explore ?mode ?bounds ?(policy = Explorer.Exhaustive) ?(domains = 1) ~run () =
  let p_report =
    match policy with
    | Explorer.Exhaustive -> Explorer.explore ?mode ?bounds ~run ()
    | _ ->
        let bounds = Option.value bounds ~default:Explorer.default_bounds in
        explore_random ~bounds ~policy ~domains ~run
  in
  { p_report }

(** [dispatch ?mode ?bounds ?policy ?domains ~run ()] — the harness
    entry point: {!explore}'s report. *)
let dispatch ?mode ?bounds ?policy ?domains ~run () =
  (explore ?mode ?bounds ?policy ?domains ~run ()).p_report
