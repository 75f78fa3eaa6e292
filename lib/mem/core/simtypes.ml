(** Types shared between the simulator core ({!Sim}), the pluggable
    coherence models ({!Cohmodel} and its implementations) and the
    counters/observer layer.

    This module is the bottom of the layered runtime: it contains no
    behavior beyond trivial constructors and predicates, so every layer
    — core, model, observers — can depend on it without cycles.  {!Sim}
    re-exports everything here under its own name, so external code
    keeps using [Ascy_mem.Sim.Read], [Ascy_mem.Sim.action], ... *)

type access_kind = Read | Write | Rmw

(* ------------------------------------------------------------------ *)
(* Scheduler-visible actions                                           *)
(* ------------------------------------------------------------------ *)

(** What a runnable thread will do when next resumed (one-step
    lookahead).  [A_start] means the thread's body has not run yet, so
    its first action is unknown; starting a thread performs no shared
    access and is independent of everything.  [A_kcas] is a multi-word
    CAS commit: one atomic step that reads {e and may write} every line
    in the (sorted, distinct) array. *)
type action = A_start | A_access of access_kind * int | A_work of int | A_kcas of int array

(* [lines] is sorted ascending, so membership can stop early. *)
let kcas_touches lines l =
  let n = Array.length lines in
  let rec go i = i < n && lines.(i) <= l && (lines.(i) = l || go (i + 1)) in
  go 0

(** [dependent a b] — can the order of [a] and [b] (by different
    threads) affect the memory state or either thread's results?  Two
    accesses conflict iff they touch the same line and at least one
    writes; local work and thread starts never conflict.  A k-CAS
    commit acts as a read-modify-write of every touched line, so it
    conflicts with any access to a member line and with any k-CAS whose
    line set intersects.  This is the per-line read/write dependency
    relation systematic concurrency testing (DPOR) prunes with. *)
let dependent a b =
  match (a, b) with
  | A_access (k1, l1), A_access (k2, l2) -> l1 = l2 && not (k1 = Read && k2 = Read)
  | A_kcas ls, A_access (_, l) | A_access (_, l), A_kcas ls -> kcas_touches ls l
  | A_kcas ls1, A_kcas ls2 -> Array.exists (kcas_touches ls1) ls2
  | _ -> false

(** The runnable-thread set presented to a scheduler at one decision
    point: the first [rn] slots of [r_tids] hold the runnable thread ids
    (ascending), and [r_acts] holds every thread's next action indexed
    by {e tid} (the simulator writes a thread's slot once, at its yield
    point, so listing the set stores only ints).  Read both through
    {!runnable_tid} / {!runnable_action}, which take a position in the
    set.  The simulator reuses one [runnable] record across every
    decision of a run, so listing the set allocates nothing, and
    schedulers must not retain it: a caller that needs a snapshot (the
    SCT explorer keeps one per DFS depth) copies the tids and actions it
    wants. *)
type runnable = {
  mutable rn : int;  (** live slots of [r_tids]; only indices [0..rn-1] are valid *)
  r_tids : int array;
  r_acts : action array;  (** indexed by tid, not by position *)
}

let runnable_count r = r.rn

let runnable_tid r i =
  if i < 0 || i >= r.rn then invalid_arg "runnable_tid: index out of range";
  r.r_tids.(i)

let runnable_action r i =
  if i < 0 || i >= r.rn then invalid_arg "runnable_action: index out of range";
  r.r_acts.(r.r_tids.(i))

(** Index of [tid] among the runnable threads, or [-1].  A loop, not a
    local recursive function: that would allocate a closure per call. *)
let runnable_find r tid =
  let i = ref 0 in
  while !i < r.rn && r.r_tids.(!i) <> tid do
    incr i
  done;
  if !i < r.rn then !i else -1

(** A controlled scheduler: given the runnable threads, return the tid
    to resume.  Called at every resume-decision point of [Sim.run];
    choosing a tid not in the set (finished, crashed or stalled) is an
    error.  The default (no scheduler) chooser resumes the thread with
    the smallest local clock, which models free-running hardware; a
    controlled scheduler instead explores or replays a specific
    interleaving. *)
type scheduler = runnable -> int

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(** Message-boundary faults: lossy-channel behaviors delivered as
    {e tokens} to a target thread rather than applied by the simulator
    itself.  The simulator only queues them (per thread, FIFO); code
    with a message boundary — the service layer's shard queues — polls
    its thread's queue at each send via [Sim.poll_msg_fault] and enacts
    the token on that one message.  Memory-level simulation is
    untouched, so the same plan replays bit-for-bit on any model.

    - {!Msg_drop}: the send is silently discarded (lost request);
    - {!Msg_dup}: the send is delivered twice (retransmit race);
    - {!Msg_delay n}: the send is held back until [n] later sends by the
      same thread have gone first (reordering/late delivery). *)
type msg_fault = Msg_drop | Msg_dup | Msg_delay of int

(** Injectable faults.  Faults are placed at {e decision points} — the
    same coordinate system controlled schedules use (one decision per
    executed simulator step), so a fault plan composes with a schedule
    prefix into a single replayable artifact and the SCT explorer can
    place faults as systematically as it places context switches.

    - {!F_crash}: crash-stop.  The thread dies at the decision point and
      never runs again: whatever it held (locks, claimed slots, frozen
      SSMEM epochs) stays held forever.
    - {!F_stall n}: the thread is descheduled for the next [n] decisions,
      then resumes — a transparent delay (preemption by the OS, a page
      fault, an SMI).
    - {!F_numa_slow}: a socket's memory-access latencies are multiplied
      by [factor] for the next [window] decisions — a transient NUMA/
      interconnect degradation.  Only observable under the default
      (free-running) policy, where latency decides the schedule.
    - {!F_msg}: queue a {!msg_fault} token for the target thread; its
      next polled message boundary consumes it (see {!msg_fault}). *)
type fault =
  | F_crash
  | F_stall of int
  | F_numa_slow of { factor : float; window : int }
  | F_msg of msg_fault

(** One fault of a plan: [fe_fault] applies once [fe_at] decisions have
    executed (before the [fe_at]-th next decision is taken).  [fe_tid]
    is a thread id for [F_crash]/[F_stall]/[F_msg] and a socket id for
    [F_numa_slow]. *)
type fault_event = { fe_at : int; fe_tid : int; fe_fault : fault }

(** Delivered into a thread being crash-stopped, so test-level
    [Fun.protect] cleanup can run deterministically.  CSDS code installs
    no such handlers, which is the point: the corpse's locks stay
    locked.  Harness oracles must treat this exception as an injected
    fault, never as an algorithm bug. *)
exception Thread_killed

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Where an access was served from (which coherence path it took). *)
type trace_class = Tc_l1 | Tc_llc | Tc_c2c_local | Tc_c2c_remote | Tc_llc_remote | Tc_mem

(* A running energy sum.  An all-float record stores its field unboxed,
   so adding to it allocates nothing. *)
type energy = { mutable nj : float }

(* Per-thread memory-event counters.  The coherence model charges the
   service-class slots (l1/llc/c2c_*/llc_remote/mem), rmw and the
   class-dependent energy, and leaves the service class of the access it
   priced in [last_class]; the simulator core charges accesses, writes
   and the per-instruction energy. *)
type mem_counters = {
  mutable accesses : int;
  mutable l1 : int;
  mutable llc : int;
  mutable c2c_local : int;
  mutable c2c_remote : int;
  mutable llc_remote : int;
  mutable mem : int;
  mutable rmw : int;
  mutable writes : int; (* plain (non-RMW) stores *)
  mutable last_class : trace_class;
  energy : energy;
}

let fresh_counters () =
  {
    accesses = 0;
    l1 = 0;
    llc = 0;
    c2c_local = 0;
    c2c_remote = 0;
    llc_remote = 0;
    mem = 0;
    rmw = 0;
    writes = 0;
    last_class = Tc_l1;
    energy = { nj = 0.0 };
  }

let trace_class_name = function
  | Tc_l1 -> "l1"
  | Tc_llc -> "llc"
  | Tc_c2c_local -> "c2c_local"
  | Tc_c2c_remote -> "c2c_remote"
  | Tc_llc_remote -> "llc_remote"
  | Tc_mem -> "mem"

(* ------------------------------------------------------------------ *)
(* Observers                                                           *)
(* ------------------------------------------------------------------ *)

(** An observer over the committed access/event stream of a run: the
    one instrumentation hook of the simulator.  Analysis passes
    (per-operation profiling, happens-before race detection) and the
    per-thread trace rings are all observers.  All callbacks fire only
    for simulated threads (never during setup/prefill, where accesses
    are free) and in commit order — [obs_access] once the scheduler has
    charged the access and the coherence model has priced it, which is
    when its memory effect takes place.

    - [obs_access tid kind line cls]: one committed access, served
      through coherence path [cls];
    - [obs_rmw tid success]: outcome of the RMW ([cas] success or
      [fetch_and_add], which always succeeds) whose [Rmw] access was just
      reported for [tid];
    - [obs_event tid code]: an {!Event} emission;
    - [obs_op_start tid code] / [obs_op_end tid code]: the harness
      operation brackets ([Sim.op_start] / [Sim.op_end]).

    A k-CAS commit is reported after its writes apply: one
    ([Rmw] access, outcome) pair per touched line, in line order, each
    access carrying the class its line was charged at the commit.
    Transactional ([txn]) accesses are buffered, not committed
    individually, and are not reported. *)
type observer = {
  obs_access : int -> access_kind -> int -> trace_class -> unit;
  obs_rmw : int -> bool -> unit;
  obs_event : int -> int -> unit;
  obs_op_start : int -> int -> unit;
  obs_op_end : int -> int -> unit;
}

(** Fan one access stream out to two observers, [a] first.  Lets the
    harness attach a race detector, a profiler and a trace ring (or any
    other combination) to the same run without the simulator knowing
    about any of them. *)
let compose_observers a b =
  {
    obs_access =
      (fun tid kind line cls ->
        a.obs_access tid kind line cls;
        b.obs_access tid kind line cls);
    obs_rmw = (fun tid ok -> a.obs_rmw tid ok; b.obs_rmw tid ok);
    obs_event = (fun tid code -> a.obs_event tid code; b.obs_event tid code);
    obs_op_start = (fun tid code -> a.obs_op_start tid code; b.obs_op_start tid code);
    obs_op_end = (fun tid code -> a.obs_op_end tid code; b.obs_op_end tid code);
  }
