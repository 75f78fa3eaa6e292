(** Controlled schedules for systematic concurrency testing.

    A schedule is the sequence of thread ids resumed at each of the
    simulator's decision points ({!Ascy_mem.Sim.run} with [~scheduler]).
    This module defines:

    - the {e default policy} every explorer and replayer falls back to
      beyond its explicit prefix: continue the current thread until its
      time slice expires, then rotate to the next runnable thread in
      cyclic tid order.  The slice keeps the policy fair — a thread
      spinning on a lock is eventually descheduled so the holder can run
      — while keeping context switches rare enough that preemption
      bounding is meaningful (slice-expiry rotations are "free": they
      are the default, not a preemption);
    - the candidate order at one decision point, which also defines the
      {e delay} cost of a non-default choice (its index in that order)
      and the {e preemption} cost (1 for switching away from a runnable
      thread mid-slice);
    - the randomized choosers of the sampling policies (uniform, sticky,
      PCT), which choose from the whole runnable set; their only
      fairness device is PCT's priority aging ({!stall_limit}), since a
      uniform or sticky draw leaves a spinning thread with positive
      probability at every decision;
    - prefix schedulers ([follow prefix, then default policy]) and the
      run-length-encoded chunk form used to serialize schedules. *)

module Sim = Ascy_mem.Sim

(** Steps a thread runs uninterrupted before the default policy rotates
    to the next runnable thread.  Small enough that spin loops cannot
    starve the system, large enough that a whole CSDS operation usually
    fits in one slice. *)
let time_slice = 50

(** Scheduling state threaded through one execution: the thread resumed
    at the previous decision and the length of its current run. *)
type state = { mutable prev : int; mutable run_len : int }

let fresh_state () = { prev = -1; run_len = 0 }

let note st tid =
  if tid = st.prev then st.run_len <- st.run_len + 1
  else begin
    st.prev <- tid;
    st.run_len <- 1
  end

let index_of tid (runnable : Sim.runnable) = Sim.runnable_find runnable tid

let action_of tid runnable =
  match index_of tid runnable with
  | -1 -> invalid_arg "Scheduler.action_of: thread not runnable"
  | i -> Sim.runnable_action runnable i

(* Where {!candidate_order}'s rotation starts: the position after the
   previous thread when it is runnable (at [prev_idx]), else the first
   tid above it, wrapping to 0.  A loop, not a local recursive
   function: that would allocate a closure per call. *)
let rotation_start ~prev ~prev_idx (runnable : Sim.runnable) =
  let n = Sim.runnable_count runnable in
  if prev_idx >= 0 then (prev_idx + 1) mod n
  else begin
    let i = ref 0 in
    while !i < n && Sim.runnable_tid runnable !i <= prev do
      incr i
    done;
    if !i < n then !i else 0
  end

(** The candidate order at one decision point, best (default) first:
    the previous thread while its slice lasts, then the other runnable
    threads in cyclic tid order starting after it.  The position of a
    choice in this list is its delay cost. *)
let candidate_order st (runnable : Sim.runnable) =
  let n = Sim.runnable_count runnable in
  if n = 0 then []
  else begin
    let prev_idx = if st.prev >= 0 then index_of st.prev runnable else -1 in
    let continue_first = prev_idx >= 0 && st.run_len < time_slice in
    let start = rotation_start ~prev:st.prev ~prev_idx runnable in
    let rest = ref [] in
    for k = n - 1 downto 0 do
      let i = (start + k) mod n in
      if i <> prev_idx then rest := Sim.runnable_tid runnable i :: !rest
    done;
    if prev_idx < 0 then !rest
    else if continue_first then st.prev :: !rest
    else !rest @ [ st.prev ]
  end

(** The head of {!candidate_order}, computed without building it: the
    previous thread while its slice lasts, else the rotation's first
    thread. *)
let default_choice st runnable =
  let n = Sim.runnable_count runnable in
  if n = 0 then invalid_arg "Scheduler.default_choice: no runnable thread";
  let prev_idx = if st.prev >= 0 then index_of st.prev runnable else -1 in
  if prev_idx >= 0 && st.run_len < time_slice then st.prev
  else Sim.runnable_tid runnable (rotation_start ~prev:st.prev ~prev_idx runnable)

(** Preemption cost of resuming [tid] after [prev] ran [run_len] steps:
    1 iff it deschedules a previous thread that is still runnable
    mid-slice.  Slice-expiry rotations and switches forced by thread
    completion are free. *)
let preempt_cost ~prev ~run_len runnable tid =
  if prev >= 0 && tid <> prev && run_len < time_slice && index_of prev runnable >= 0 then 1
  else 0

(** Delay cost of resuming [tid] after [prev] ran [run_len] steps: how
    many better-ranked candidates the choice skips (0 for the default
    choice), i.e. [tid]'s index in {!candidate_order}, computed without
    building it. *)
let delay_cost ~prev ~run_len runnable tid =
  let i = index_of tid runnable in
  if i < 0 then invalid_arg "Scheduler.delay_cost: thread not runnable";
  let n = Sim.runnable_count runnable in
  let prev_idx = if prev >= 0 then index_of prev runnable else -1 in
  (* [tid]'s place in the rotation, which reaches [prev_idx] last *)
  let pos = (i - rotation_start ~prev ~prev_idx runnable + n) mod n in
  if prev_idx < 0 || run_len >= time_slice then pos else if i = prev_idx then 0 else pos + 1

(* ------------------------------------------------------------------ *)
(* Randomized choosers (uniform / sticky / PCT)                        *)
(* ------------------------------------------------------------------ *)

(** [uniform_chooser rng] picks uniformly among the runnable threads at
    every decision.  Deterministic per [rng] stream. *)
let uniform_chooser rng : Sim.scheduler =
 fun runnable ->
  Sim.runnable_tid runnable (Ascy_util.Xorshift.below rng (Sim.runnable_count runnable))

(** [sticky_chooser rng ~p_continue] continues the previous thread with
    probability [p_continue] (when it is runnable) and otherwise picks
    uniformly among the other runnable threads — one point in the
    swarm's temperament space: high [p_continue] yields long
    quasi-sequential runs, low values yield churn.  A spinning thread is
    left with probability [1 - p_continue] at every decision, so no
    thread starves. *)
let sticky_chooser rng ~p_continue : Sim.scheduler =
  let st = fresh_state () in
  fun runnable ->
    let n = Sim.runnable_count runnable in
    let prev_idx = if st.prev >= 0 then index_of st.prev runnable else -1 in
    let i =
      if prev_idx < 0 then Ascy_util.Xorshift.below rng n
      else if Ascy_util.Xorshift.bool rng p_continue then prev_idx
      else begin
        (* the [j]-th runnable thread other than [prev], or [prev] itself
           when it runs alone *)
        let j = Ascy_util.Xorshift.below rng (max 1 (n - 1)) in
        if n = 1 then prev_idx else if j < prev_idx then j else j + 1
      end
    in
    let tid = Sim.runnable_tid runnable i in
    note st tid;
    tid

(** [pct_chooser rng ~depth ~length] — probabilistic concurrency
    testing (Burckhardt et al., ASPLOS'10).  Each thread gets a random
    distinct initial priority; the scheduler always runs the
    highest-priority runnable thread; at [depth - 1] change points
    drawn uniformly over the estimated run length, the
    currently-running thread's priority drops below everyone's.  A bug
    whose manifestation needs [depth] ordering constraints is found
    with probability >= 1/(n·k^(d-1)) per schedule — [length] is the
    [k] estimate, from a probe run under the default policy.

    Deviations from the default candidate order are exactly what the
    explorer's delay/preemption accounting prices; PCT spends that
    budget through its own coin (the [depth - 1] change points plus
    priority inversions), so {!Explorer} does not additionally bound
    PCT runs.

    Strict priorities need a liveness backstop: a top-priority thread
    spinning on a lock, retrying a failed CAS or re-validating a marked
    node would run until the step-limit oracle reports a bogus
    livelock while the thread it waits for never gets a decision
    (observed on sl-herlihy's marked-node retry and bst-tk's
    version-lock retry).  The backstop is priority aging: a thread given
    [stall_limit] consecutive decisions while others are runnable drops
    below every other priority — an off-budget change point, as in
    fair-PCT implementations.  Legit monopolies (a thread running its
    whole script undisturbed) are an order of magnitude shorter in these
    specs, and a true global livelock still trips the step limit:
    rotation by itself creates no progress. *)
let stall_limit = 1_000

let pct_chooser rng ~depth ~length : Sim.scheduler =
  let prio : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let inited = ref false in
  let change =
    let k = max 1 length in
    let a = Array.init (max 0 (depth - 1)) (fun _ -> 1 + Ascy_util.Xorshift.below rng k) in
    Array.sort compare a;
    a
  in
  let nchange = Array.length change in
  let applied = ref 0 in
  let last = ref (-1) in
  let step = ref 0 in
  (* priority aging: [floor] sits below every initial priority and
     every change-point value, and drops once per forced demotion so
     successive monopolists keep rotating; [mono] counts consecutive
     decisions given to [last] *)
  let floor = ref (depth - nchange) in
  let mono = ref 0 in
  fun runnable ->
    incr step;
    if not !inited then begin
      (* random distinct priorities in [depth, depth + n): all above the
         values change points assign, so a demoted thread stays demoted *)
      inited := true;
      let n = Sim.runnable_count runnable in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Ascy_util.Xorshift.below rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      for i = 0 to n - 1 do
        Hashtbl.replace prio (Sim.runnable_tid runnable i) (depth + perm.(i))
      done
    end;
    while !applied < nchange && change.(!applied) <= !step do
      (* change point: the running thread falls below every initial
         priority, and below all earlier change points' assignments *)
      if !last >= 0 then Hashtbl.replace prio !last (depth - 1 - !applied);
      incr applied
    done;
    if !mono >= stall_limit && Sim.runnable_count runnable > 1 && !last >= 0 then begin
      floor := !floor - 1;
      Hashtbl.replace prio !last !floor;
      mono := 0
    end;
    let pr i = try Hashtbl.find prio (Sim.runnable_tid runnable i) with Not_found -> -1 in
    (* the first runnable thread of the highest priority *)
    let best = ref 0 in
    for i = 1 to Sim.runnable_count runnable - 1 do
      if pr i > pr !best then best := i
    done;
    let tid = Sim.runnable_tid runnable !best in
    if tid = !last then incr mono else mono := 1;
    last := tid;
    tid

(* ------------------------------------------------------------------ *)
(* Prefix schedulers                                                   *)
(* ------------------------------------------------------------------ *)

(** [prefix_scheduler ?on_step ~prefix ()] is a {!Ascy_mem.Sim.scheduler}
    that follows [prefix] (an array of tids, one per decision point) and
    then continues with the default policy until the program finishes.
    A recorded tid that is no longer runnable — truncating a schedule
    during minimization can diverge from the run that recorded it, e.g.
    when the cut makes a thread finish or crash earlier — falls back to
    the default policy deterministically instead of faulting the
    simulator; exact replays of complete prefixes never hit this path.
    [on_step] observes every decision: the step index, the runnable set
    and the chosen tid.  The runnable record is the simulator's reused
    one: callbacks must copy what they keep of it. *)
let prefix_scheduler ?on_step ~prefix () : Sim.scheduler =
  let st = fresh_state () in
  let step = ref 0 in
  fun runnable ->
    let k = !step in
    incr step;
    let tid =
      if k < Array.length prefix && Sim.runnable_find runnable prefix.(k) >= 0 then prefix.(k)
      else default_choice st runnable
    in
    (match on_step with Some f -> f ~step:k ~runnable ~chosen:tid | None -> ());
    note st tid;
    tid

(* ------------------------------------------------------------------ *)
(* Run-length-encoded schedules                                        *)
(* ------------------------------------------------------------------ *)

(** [(tid, len)] chunks: [to_chunks [|0;0;1;0|] = [(0,2);(1,1);(0,1)]]. *)
let to_chunks (sched : int array) =
  let rec go i acc =
    if i >= Array.length sched then List.rev acc
    else begin
      let tid = sched.(i) in
      let j = ref i in
      while !j < Array.length sched && sched.(!j) = tid do
        incr j
      done;
      go !j ((tid, !j - i) :: acc)
    end
  in
  go 0 []

let of_chunks chunks =
  let total = List.fold_left (fun acc (_, len) -> acc + len) 0 chunks in
  let sched = Array.make total 0 in
  let i = ref 0 in
  List.iter
    (fun (tid, len) ->
      if len < 0 then invalid_arg "Scheduler.of_chunks: negative length";
      for _ = 1 to len do
        sched.(!i) <- tid;
        incr i
      done)
    chunks;
  sched
