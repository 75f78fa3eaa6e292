(** A deterministic discrete-event multicore simulator built on OCaml 5
    effect handlers, with a pluggable cache-coherence cost model.

    Simulated threads are ordinary OCaml closures written against
    {!Memory.S}; each shared-memory access is a yield point, which takes
    the next scheduling decision in place and suspends the thread
    through an effect only when another thread is chosen or a fault is
    due (see {!run}).  The free-running scheduler always resumes the
    thread with the smallest local clock and charges the access a
    latency taken from the installed coherence model ({!Cohmodel.S}):

    - {!Coh_dir}: one directory model — per-core private caches,
      per-socket LLCs, a directory per line tracking owner and sharer
      set, with costs for private hits, local LLC hits, in-socket and
      cross-socket dirty-line transfers, remote clean fetches and DRAM —
      instantiated as ["mesi"] (inclusive LLC, the default) and
      ["moesi"] (Opteron-style victim LLC with an Owned state, for
      cross-platform shape reproduction);
    - {!Coh_flat}: O(1) uniform cost, for SCT/analysis runs where timing
      fidelity is irrelevant.

    The MESI model captures exactly the mechanism the paper identifies
    as the scalability limiter — stores to shared lines invalidate
    copies and turn other threads' future loads into coherence misses —
    so the relative throughput/latency/power shapes of CSDS algorithms
    are preserved even though no real multicore is present.

    The same machinery doubles as a deterministic concurrency tester:
    a controlled [~scheduler] turns the simulator into a systematic
    concurrency tester, and the randomized SCT policies ([Ascy_sct]) are
    its reproducible schedule fuzzing.

    Layering (see DESIGN.md): this module owns threads, continuations,
    scheduling, faults, the counters and the one instrumentation hook
    (the {!observer}); shared types live in {!Simtypes} (re-exported
    here, so callers only ever name [Sim]); everything
    line-state/latency-class-specific lives behind {!Cohmodel.S}. *)

module P = Ascy_platform.Platform

(* ------------------------------------------------------------------ *)
(* Re-exports from the shared types layer                              *)
(* ------------------------------------------------------------------ *)

type access_kind = Simtypes.access_kind = Read | Write | Rmw

type action = Simtypes.action =
  | A_start
  | A_access of access_kind * int
  | A_work of int
  | A_kcas of int array

let dependent = Simtypes.dependent
let kcas_touches = Simtypes.kcas_touches

type runnable = Simtypes.runnable = {
  mutable rn : int;
  r_tids : int array;
  r_acts : action array;
}

let runnable_count = Simtypes.runnable_count
let runnable_tid = Simtypes.runnable_tid
let runnable_action = Simtypes.runnable_action
let runnable_find = Simtypes.runnable_find

type scheduler = Simtypes.scheduler

type msg_fault = Simtypes.msg_fault = Msg_drop | Msg_dup | Msg_delay of int

type fault = Simtypes.fault =
  | F_crash
  | F_stall of int
  | F_numa_slow of { factor : float; window : int }
  | F_msg of msg_fault

type fault_event = Simtypes.fault_event = { fe_at : int; fe_tid : int; fe_fault : fault }

exception Thread_killed = Simtypes.Thread_killed

type trace_class = Simtypes.trace_class =
  | Tc_l1
  | Tc_llc
  | Tc_c2c_local
  | Tc_c2c_remote
  | Tc_llc_remote
  | Tc_mem

type energy = Simtypes.energy = { mutable nj : float }

type mem_counters = Simtypes.mem_counters = {
  mutable accesses : int;
  mutable l1 : int;
  mutable llc : int;
  mutable c2c_local : int;
  mutable c2c_remote : int;
  mutable llc_remote : int;
  mutable mem : int;
  mutable rmw : int;
  mutable writes : int;
  mutable last_class : trace_class;
  energy : energy;
}

let fresh_counters = Simtypes.fresh_counters

type observer = Simtypes.observer = {
  obs_access : int -> access_kind -> int -> trace_class -> unit;
  obs_rmw : int -> bool -> unit;
  obs_event : int -> int -> unit;
  obs_op_start : int -> int -> unit;
  obs_op_end : int -> int -> unit;
}

let compose_observers = Simtypes.compose_observers

(* ------------------------------------------------------------------ *)
(* Coherence-model selection                                           *)
(* ------------------------------------------------------------------ *)

(** A coherence cost model, selectable per simulation ([?model] on
    {!create} / {!with_sim}).  The default, {!Models.mesi}, reproduces
    the repository's historical behavior bit-for-bit; see {!Models} for
    the registry. *)
type model = Cohmodel.spec

let default_model : model = Models.default
let model_of_name : string -> model = Models.by_name
let model_name_of : model -> string = Cohmodel.name
let model_names () = Models.names

(* ------------------------------------------------------------------ *)
(* Core state                                                          *)
(* ------------------------------------------------------------------ *)

(* How a thread's resumption ended: it returned, it suspended at a
   yield point, or a decision or commit taken at its yield point raised
   (the exception belongs to the run, not to the thread). *)
type step = Finished | Blocked | Aborted of exn * Printexc.raw_backtrace

type thread = {
  tid : int;
  core : int;
  socket : int;
  instr_scale : float; (* SMT issue-sharing multiplier for this thread *)
  mutable clock : int; (* local time, cycles *)
  mutable cont : (unit, step) Effect.Deep.continuation option;
  mutable finished : bool;
  mutable crashed : bool; (* crash-stopped by an injected fault *)
  mutable stalled_until : int; (* not runnable until this decision count *)
}

(* In-flight best-effort transaction of the currently-running simulated
   thread (the simulator is cooperative, so one slot suffices). *)
type txn_state = {
  mutable t_cost : int;
  mutable t_undo : (unit -> unit) list; (* newest first *)
  mutable t_lines : int list; (* touched lines, deduplicated *)
  mutable t_written : int list;
  mutable t_nlines : int;
}

type t = {
  plat : P.t;
  nthreads : int;
  threads : thread array;
  coh_spec : model;
  coh : Cohmodel.inst; (* all line/tag state lives in here *)
  mutable nlines : int; (* allocated line ids (dense, from 0) *)
  counters : mem_counters array;
  events : int array array; (* per-thread algorithm events *)
  mutable cur : int; (* currently-executing simulated thread, or -1 *)
  mutable live : int;
  mutable txn : txn_state option;
  mutable observer : observer option; (* instrumentation hook; None = zero cost *)
  mutable kcas_class : trace_class array; (* per-line classes of the last k-CAS commit *)
  (* fault-injection state; inert (any_fault = false) unless run is
     given a fault plan, so default paths stay byte-identical *)
  mutable any_fault : bool;
  mutable decisions : int; (* executed steps in the current run *)
  mutable runnable : runnable; (* the current run's decision record *)
  mutable choose : scheduler option; (* the current run's chooser; None = the clock *)
  mutable next : int; (* choice a yield point made for the loop, or -1 *)
  (* The free-running chooser's state, allocated by the first
     free-running run: each thread's pending access as two ints
     ([pend_line = -1]: the pending step is its [runnable.r_acts] slot);
     a binary min-heap on (clock, tid) of exactly the runnable threads,
     in [order.(0 .. ordered - 1)], with [slot.(tid)] the index of [tid]
     in it or -1; and the live threads a stall took out of it, to
     re-enter it once [decisions] reaches [next_wake].  A controlled run
     keeps [ordered = 0] and touches none of it. *)
  mutable pend_kind : access_kind array;
  mutable pend_line : int array;
  mutable order : int array;
  mutable slot : int array;
  mutable ordered : int;
  mutable stalled : int list;
  mutable next_wake : int;
  mutable pending_faults : fault_event list; (* sorted by fe_at *)
  mutable crashed_tids : int list; (* newest first *)
  slow_factor : float array; (* per-socket NUMA slowdown multiplier *)
  slow_until : int array; (* decision count the slowdown expires at *)
  pending_msgs : msg_fault list array; (* per-thread FIFO of F_msg tokens *)
}

let create ?(model = default_model) ~platform ~nthreads () =
  if nthreads < 1 || nthreads > P.hw_threads platform then
    invalid_arg
      (Printf.sprintf "Sim.create: nthreads %d out of range 1..%d for %s" nthreads
         (P.hw_threads platform) platform.P.name);
  (* Count busy hardware threads per core to scale instruction overhead. *)
  let busy = Array.make platform.P.cores 0 in
  for t = 0 to nthreads - 1 do
    let c = P.core_of platform t in
    busy.(c) <- busy.(c) + 1
  done;
  let threads =
    Array.init nthreads (fun tid ->
        let core = P.core_of platform tid in
        let scale = 1.0 +. (platform.P.smt_penalty *. float_of_int (busy.(core) - 1)) in
        {
          tid;
          core;
          socket = P.socket_of platform tid;
          instr_scale = scale;
          clock = 0;
          cont = None;
          finished = false;
          crashed = false;
          stalled_until = 0;
        })
  in
  {
    plat = platform;
    nthreads;
    threads;
    coh_spec = model;
    coh = Cohmodel.instantiate model ~platform;
    nlines = 0;
    counters = Array.init nthreads (fun _ -> fresh_counters ());
    events = Array.init nthreads (fun _ -> Array.make Event.count 0);
    cur = -1;
    live = 0;
    txn = None;
    observer = None;
    kcas_class = [||];
    any_fault = false;
    decisions = 0;
    runnable = { Simtypes.rn = 0; r_tids = [||]; r_acts = [||] };
    choose = None;
    next = -1;
    pend_kind = [||];
    pend_line = [||];
    order = [||];
    slot = [||];
    ordered = 0;
    stalled = [];
    next_wake = max_int;
    pending_faults = [];
    crashed_tids = [];
    slow_factor = Array.make platform.P.sockets 1.0;
    slow_until = Array.make platform.P.sockets 0;
    pending_msgs = Array.make nthreads [];
  }

(** The coherence model [sim] was created with. *)
let model sim = sim.coh_spec

(** Name of the coherence model [sim] was created with. *)
let model_name sim = model_name_of sim.coh_spec

(* The simulation the calling domain is currently driving.  The
   simulator is single-threaded *per domain*: one domain-local slot
   (Domain.DLS) lets the parallel randomized explorer
   ([Ascy_sct.Par_explore]) run schedule chunks on separate domains,
   each driving its own installed simulation, while a single-domain
   process behaves exactly as with the historical global slot. *)
let current_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let new_line_id sim =
  let id = sim.nlines in
  sim.nlines <- id + 1;
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  C.on_new_line cm id;
  id

(* ------------------------------------------------------------------ *)
(* Access accounting                                                   *)
(* ------------------------------------------------------------------ *)

let em = P.energy_model

(* Charge and account one memory access to [cnt], [th]'s counters;
   returns its latency in cycles, and the model leaves its service class
   in [cnt.last_class].  The core charges the model-independent parts
   (access/store counts, instruction overhead and its energy, NUMA fault
   scaling); the installed coherence model charges the service class,
   its energy, any atomic surcharge, and mutates its own line state.
   The caller notifies the observer.  Allocates nothing. *)
let access_cost sim th cnt kind line =
  let p = sim.plat in
  let s = th.socket in
  cnt.accesses <- cnt.accesses + 1;
  (match kind with Write -> cnt.writes <- cnt.writes + 1 | Read | Rmw -> ());
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  let lat = C.access cm cnt ~core:th.core ~socket:s kind line in
  (* transient NUMA degradation: scale the memory latency (not the
     instruction overhead) while the thread's socket is slowed *)
  let lat =
    if sim.any_fault && sim.slow_until.(s) > sim.decisions then
      int_of_float (float_of_int lat *. sim.slow_factor.(s))
    else lat
  in
  let instr = int_of_float (float_of_int p.P.c_instr *. th.instr_scale) in
  cnt.energy.nj <- cnt.energy.nj +. em.P.nj_instr;
  lat + instr

(* ------------------------------------------------------------------ *)
(* The free-running order                                              *)
(* ------------------------------------------------------------------ *)

(* [a] runs before [b]: the smaller clock, the lower tid on ties. *)
let[@inline] before sim a b =
  let ca = sim.threads.(a).clock and cb = sim.threads.(b).clock in
  ca < cb || (ca = cb && a < b)

let[@inline] place sim i tid =
  sim.order.(i) <- tid;
  sim.slot.(tid) <- i

(* Move [tid], bound for index [i], up or down the heap to its place. *)
let rec sift_up sim i tid =
  let parent = (i - 1) / 2 in
  if i > 0 && before sim tid sim.order.(parent) then begin
    place sim i sim.order.(parent);
    sift_up sim parent tid
  end
  else place sim i tid

let rec sift_down sim i tid =
  let l = (2 * i) + 1 in
  if l >= sim.ordered then place sim i tid
  else begin
    let c = if l + 1 < sim.ordered && before sim sim.order.(l + 1) sim.order.(l) then l + 1 else l in
    if before sim sim.order.(c) tid then begin
      place sim i sim.order.(c);
      sift_down sim c tid
    end
    else place sim i tid
  end

let sift sim i tid =
  if i > 0 && before sim tid sim.order.((i - 1) / 2) then sift_up sim i tid
  else sift_down sim i tid

let order_add sim tid =
  sim.ordered <- sim.ordered + 1;
  sift_up sim (sim.ordered - 1) tid

let order_remove sim tid =
  let i = if sim.ordered > 0 then sim.slot.(tid) else -1 in
  if i >= 0 then begin
    sim.slot.(tid) <- -1;
    sim.ordered <- sim.ordered - 1;
    if i < sim.ordered then sift sim i sim.order.(sim.ordered)
  end

(* [th]'s clock moved: restore its place in the free-running order. *)
let[@inline] reorder sim th =
  match sim.choose with None -> sift sim sim.slot.(th.tid) th.tid | Some _ -> ()

(* Put back every stalled thread whose stall has expired; drop the dead. *)
let wake_stalled sim =
  let wake = ref max_int in
  sim.stalled <-
    List.filter
      (fun tid ->
        let th = sim.threads.(tid) in
        if th.finished || th.crashed then false
        else if th.stalled_until <= sim.decisions then begin
          order_add sim tid;
          false
        end
        else begin
          wake := min !wake th.stalled_until;
          true
        end)
      sim.stalled;
  sim.next_wake <- !wake

(* ------------------------------------------------------------------ *)
(* Effects & the MEMORY instance                                       *)
(* ------------------------------------------------------------------ *)

type _ Effect.t +=
  | Switch : unit Effect.t
        (** suspend at a yield point: another thread was chosen (the
            choice is in [sim.next]) or a fault is due (undecided) *)
  | Abort : exn * Printexc.raw_backtrace -> unit Effect.t
        (** a decision or commit taken at a yield point raised *)

(* Commit [th]'s pending access of [kind] to [line]. *)
let commit_access sim th kind line =
  let cnt = sim.counters.(th.tid) in
  let lat = access_cost sim th cnt kind line in
  (match sim.observer with Some o -> o.obs_access th.tid kind line cnt.last_class | None -> ());
  th.clock <- th.clock + lat;
  reorder sim th

(* Commit [th]'s pending step [act]: charge its latency to [th]'s clock.
   The observer hears a priced access before the clock moves past it.
   Every touched line of a k-CAS commit pays its own RMW coherence cost
   under the installed model, and its class is saved in
   [sim.kcas_class]: the observer hears each access/outcome pair from
   the k-CAS code instead, which knows the outcome. *)
let commit sim th = function
  | A_access (kind, line) -> commit_access sim th kind line
  | A_work n ->
      th.clock <- th.clock + int_of_float (float_of_int n *. th.instr_scale);
      reorder sim th
  | A_kcas lines ->
      let cnt = sim.counters.(th.tid) in
      if Array.length sim.kcas_class < Array.length lines then
        sim.kcas_class <- Array.make (Array.length lines) Tc_l1;
      Array.iteri
        (fun i line ->
          th.clock <- th.clock + access_cost sim th cnt Rmw line;
          sim.kcas_class.(i) <- cnt.last_class)
        lines;
      reorder sim th
  | A_start -> ()

(* Commit [th]'s pending step, wherever it was recorded. *)
let commit_pending sim th =
  match sim.choose with
  | None when sim.pend_line.(th.tid) >= 0 ->
      commit_access sim th sim.pend_kind.(th.tid) sim.pend_line.(th.tid)
  | _ -> commit sim th sim.runnable.r_acts.(th.tid)

(* One decision; [-1] when every live thread is stalled.  Free-running,
   the answer is the root of the heap.  A controlled chooser gets the
   runnable threads (live, not crashed, not stalled; ascending tid)
   listed into [sim.runnable], and its answer is checked to be one of
   them. *)
let decide sim =
  match sim.choose with
  | None ->
      if sim.decisions >= sim.next_wake then wake_stalled sim;
      if sim.ordered = 0 then -1 else sim.order.(0)
  | Some choose ->
      let r = sim.runnable in
      let n = ref 0 in
      for tid = 0 to sim.nthreads - 1 do
        let th = sim.threads.(tid) in
        if (not th.finished) && (not th.crashed) && th.stalled_until <= sim.decisions then begin
          r.r_tids.(!n) <- tid;
          incr n
        end
      done;
      r.rn <- !n;
      if !n = 0 then -1
      else begin
        let tid = choose r in
        if
          tid < 0 || tid >= sim.nthreads || sim.threads.(tid).finished
          || sim.threads.(tid).crashed
          || sim.threads.(tid).stalled_until > sim.decisions
        then invalid_arg (Printf.sprintf "Sim.run: scheduler chose non-runnable thread %d" tid);
        tid
      end

(* A fault is due at the current decision.  The fault being applied
   stays at the head of the plan until it has been applied. *)
let fault_due sim =
  match sim.pending_faults with fe :: _ -> fe.fe_at <= sim.decisions | [] -> false

(* The yield point of every step (a {!Mem} access, [work]/[cpu_relax], a
   k-CAS commit, a transaction's commit work), once the running thread
   [tid] has recorded its next step: take the decision here, as the loop
   would (no thread running, the same runnable set).  A re-pick of the
   running thread is committed on the spot and the thread runs on
   without an effect; another choice suspends it and hands the choice to
   the loop, so the chooser is still called once per decision.  While a
   fault is due the thread suspends undecided, so that the loop applies
   the fault before it decides; this also parks a crashed thread's
   clean-up code at its first yield point.  An exception from the
   decision or the commit leaves through [Abort], never through the
   thread's own code. *)
let yield sim tid =
  if sim.any_fault && fault_due sim then Effect.perform Switch
  else begin
    sim.cur <- -1;
    match
      let next = decide sim in
      sim.cur <- tid;
      if next = tid then begin
        sim.decisions <- sim.decisions + 1;
        commit_pending sim sim.threads.(tid);
        true
      end
      else begin
        sim.next <- next;
        false
      end
    with
    | true -> ()
    | false -> Effect.perform Switch
    | exception e -> Effect.perform (Abort (e, Printexc.get_raw_backtrace ()))
  end

(* Record the running thread's next step [act], then yield. *)
let yield_point sim act =
  let tid = sim.cur in
  sim.runnable.r_acts.(tid) <- act;
  (match sim.choose with None -> sim.pend_line.(tid) <- -1 | Some _ -> ());
  yield sim tid

(* Record the running thread's next access, then yield.  Free-running,
   the access is kept as two ints, so recording it allocates nothing; a
   controlled chooser reads it from [r_acts] as an action. *)
let yield_access sim kind line =
  match sim.choose with
  | None ->
      let tid = sim.cur in
      sim.pend_kind.(tid) <- kind;
      sim.pend_line.(tid) <- line;
      yield sim tid
  | Some _ -> yield_point sim (A_access (kind, line))

exception Txn_abort

(* Transaction capacity: lines an L1-resident read/write set can hold. *)
let txn_capacity = 64

(* Account one access inside a transaction: abort on conflict (line in
   modified state in another core's cache) or capacity overflow; charge a
   private-hit or LLC-hit estimate.  No coherence state changes until
   commit. *)
let txn_access sim (tx : txn_state) kind line =
  let th = sim.threads.(sim.cur) in
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  if C.txn_conflict cm ~core:th.core line then raise Txn_abort;
  if not (List.mem line tx.t_lines) then begin
    tx.t_nlines <- tx.t_nlines + 1;
    if tx.t_nlines > txn_capacity then raise Txn_abort;
    tx.t_lines <- line :: tx.t_lines
  end;
  (match kind with
  | Write | Rmw -> if not (List.mem line tx.t_written) then tx.t_written <- line :: tx.t_written
  | Read -> ());
  let base = C.txn_line_cost cm ~core:th.core line in
  tx.t_cost <- tx.t_cost + base + sim.plat.P.c_instr

let running () = match !(current ()) with Some sim -> sim.cur >= 0 | None -> false

let the_sim () =
  match !(current ()) with
  | Some sim -> sim
  | None -> failwith "Sim: no simulation installed (use Sim.with_sim)"

(** Install (or clear) the {!observer} of [sim].  The hook costs one
    option test per access when unset.  [Ascy_harness.Engine] is its one
    installer: a session's [config.observer] is what gets installed. *)
let set_observer sim obs = sim.observer <- obs

(* Report an RMW outcome to the observer.  Called after the [Rmw] access
   yield point returned, i.e. after the access was committed and charged, on
   the same (still-running) simulated thread. *)
let notify_rmw ok =
  match !(current ()) with
  | Some sim when sim.cur >= 0 && sim.txn = None -> (
      match sim.observer with Some o -> o.obs_rmw sim.cur ok | None -> ())
  | _ -> ()

(** The {!Memory.S} implementation backed by the installed simulation.
    Cells created while a simulation is installed but no simulated thread
    is running (structure setup) cost nothing and start uncached. *)
module Mem : Memory.S with type line = int = struct
  type line = int

  let new_line () = new_line_id (the_sim ())

  type 'a r = { line : int; mutable v : 'a }

  (* Route an access: inside a transaction it is buffered/accounted by
     txn_access; otherwise it is a yield point. *)
  let access kind line =
    match !(current ()) with
    | Some sim when sim.cur >= 0 -> (
        match sim.txn with
        | Some tx -> txn_access sim tx kind line
        | None -> yield_access sim kind line)
    | _ -> ()

  let in_txn () = match !(current ()) with Some sim -> sim.txn | None -> None

  let log_undo r =
    match in_txn () with
    | Some tx ->
        let old = r.v in
        tx.t_undo <- (fun () -> r.v <- old) :: tx.t_undo
    | None -> ()

  let make line v =
    access Write line;
    { line; v }

  let make_fresh v = make (new_line ()) v

  let get r =
    access Read r.line;
    r.v

  let set r v =
    access Write r.line;
    log_undo r;
    r.v <- v

  let cas r expected desired =
    access Rmw r.line;
    if r.v == expected then begin
      log_undo r;
      r.v <- desired;
      notify_rmw true;
      true
    end
    else begin
      notify_rmw false;
      false
    end

  let fetch_and_add r n =
    access Rmw r.line;
    let old = r.v in
    log_undo r;
    r.v <- old + n;
    notify_rmw true;
    old

  (* Multi-word CAS.  The descriptor internals carry the [kdx_] prefix
     ([ascy_lint] rule C confines it to the backend files).  One
     yield point is the single scheduling point: the compare, the
     writes and the observer notifications all happen atomically after
     the scheduler resumes us, exactly like the post-yield body of
     [cas], so the commit is one indivisible multi-line step whose
     coherence cost was charged per line at the commit decision. *)
  type kcas_op = Kdx_op : { kdx_cell : 'a r; kdx_exp : 'a; kdx_des : 'a } -> kcas_op

  let kcas_op r ~expected ~desired = Kdx_op { kdx_cell = r; kdx_exp = expected; kdx_des = desired }

  let kdx_check_dup ops =
    let cells = List.map (fun op -> match op with Kdx_op o -> Obj.repr o.kdx_cell) ops in
    let rec dup = function
      | [] -> false
      | c :: rest -> List.exists (fun c' -> c' == c) rest || dup rest
    in
    if dup cells then invalid_arg "Memory.kcas: duplicate cell"

  let kdx_lines ops =
    Array.of_list
      (List.sort_uniq compare (List.map (fun op -> match op with Kdx_op o -> o.kdx_cell.line) ops))

  let kdx_match ops =
    List.for_all (fun op -> match op with Kdx_op o -> o.kdx_cell.v == o.kdx_exp) ops

  let kdx_write ops =
    List.iter
      (fun op ->
        match op with
        | Kdx_op o ->
            log_undo o.kdx_cell;
            o.kdx_cell.v <- o.kdx_des)
      ops

  let kdx_apply ops =
    let ok = kdx_match ops in
    if ok then kdx_write ops;
    ok

  let cas_of_op op = match op with Kdx_op o -> cas o.kdx_cell o.kdx_exp o.kdx_des

  let kcas ops =
    match ops with
    | [] -> true
    | [ op ] -> cas_of_op op (* a 1-CAS is a CAS, with identical accounting *)
    | _ -> (
        kdx_check_dup ops;
        match !(current ()) with
        | Some sim when sim.cur >= 0 -> (
            let lines = kdx_lines ops in
            match sim.txn with
            | Some tx ->
                (* buffered like any transactional RMW, one per line *)
                Array.iter (fun line -> txn_access sim tx Rmw line) lines;
                kdx_apply ops
            | None ->
                yield_point sim (A_kcas lines);
                let ok = kdx_apply ops in
                (match sim.observer with
                | Some o ->
                    Array.iteri
                      (fun i line ->
                        o.obs_access sim.cur Rmw line sim.kcas_class.(i);
                        o.obs_rmw sim.cur ok)
                      lines
                | None -> ());
                ok)
        | _ -> kdx_apply ops (* setup/prefill: free, like every access *))

  let touch line = access Read line

  let work n =
    match !(current ()) with
    | Some sim when sim.cur >= 0 -> (
        match sim.txn with
        | Some tx -> tx.t_cost <- tx.t_cost + n
        | None -> yield_point sim (A_work n))
    | _ -> ()

  let cpu_relax () = work 6
  let yield_cpu () = ()

  let self () =
    let sim = the_sim () in
    if sim.cur < 0 then 0 else sim.cur

  let max_threads () = (the_sim ()).nthreads

  let emit code =
    let sim = the_sim () in
    if sim.cur >= 0 then begin
      sim.events.(sim.cur).(code) <- sim.events.(sim.cur).(code) + 1;
      match sim.observer with Some o -> o.obs_event sim.cur code | None -> ()
    end

  let txn f =
    match !(current ()) with
    | Some sim when sim.cur >= 0 && sim.txn = None ->
        let tx =
          { t_cost = sim.plat.P.c_atomic; t_undo = []; t_lines = []; t_written = []; t_nlines = 0 }
        in
        sim.txn <- Some tx;
        (match f () with
        | v ->
            sim.txn <- None;
            (* commit: written lines become exclusively ours *)
            let th = sim.threads.(sim.cur) in
            let (Cohmodel.Inst ((module C), cm)) = sim.coh in
            List.iter
              (fun line -> C.txn_commit cm ~core:th.core ~socket:th.socket line)
              tx.t_written;
            yield_point sim (A_work (tx.t_cost + sim.plat.P.c_atomic));
            Some v
        | exception Txn_abort ->
            sim.txn <- None;
            List.iter (fun undo -> undo ()) tx.t_undo;
            sim.counters.(sim.cur).rmw <- sim.counters.(sim.cur).rmw + 1;
            yield_point sim (A_work (tx.t_cost + (2 * sim.plat.P.c_atomic)));
            None)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

(** Wraps any exception escaping a simulated thread body: carries the
    tid, the original exception and its backtrace, so harness oracles
    can attribute the failure. *)
exception Thread_failure of int * exn * string

(** [run ?scheduler sim bodies] runs one simulated thread per element of
    [bodies] (length must equal [nthreads]) to completion,
    deterministically.  Returns the largest thread clock (the makespan,
    in cycles).

    Every decision resumes one runnable thread (live, not crashed, not
    stalled).  Without [scheduler] the chooser is the clock: the
    runnable thread with the smallest [(clock, tid)] is resumed — the
    free-running hardware model.  It is the root of a binary min-heap
    that holds exactly the runnable threads: a commit moves the one
    thread whose clock grew, finishing, a crash or a stall takes a
    thread out, and a stall puts it back when it expires, so a decision
    costs O(log n) whether or not a fault plan is given.  [scheduler],
    when given, makes the simulator a controlled concurrency tester (see
    [Ascy_sct]): each decision lists the {!runnable} set (ascending tid)
    for the callback, which sees each runnable thread's next {!action},
    must return one of the listed tids and is checked.  The [runnable]
    record passed to the callback is {e reused} across decisions, so
    schedulers must copy anything they retain past the callback.  A
    decision and the commit of a priced access allocate nothing; a
    thread that suspends allocates its continuation.

    A thread's first step and the step after a thread finishes are
    decided in the run's loop.  Every other decision falls at a yield
    point of the running thread (a {!Mem} access, [work]/[cpu_relax], a
    k-CAS commit, a transaction's commit work) and is taken there: if
    the chooser re-picks the running thread, the step is charged in
    place and the thread runs on without suspending; otherwise the
    thread suspends and the loop resumes the thread already chosen.
    While a fault is due the thread suspends undecided and the loop
    applies the fault, then decides.  The decision sequence is the one
    a loop deciding every step would take, with one chooser call per
    decision; an exception raised by the chooser or by the step's
    commit leaves [run] as itself, and only an exception of the
    thread's own code is wrapped in {!Thread_failure}.

    [faults] injects {!fault_event}s keyed by decision index (see
    {!decisions}).  Due faults are applied as a pre-step before each
    decision, whichever chooser is in force; when every live thread is
    stalled the decision counter jumps to the earliest expiry.  An empty
    plan skips the pre-step entirely. *)
let run ?scheduler ?(faults = []) sim bodies =
  if Array.length bodies <> sim.nthreads then invalid_arg "Sim.run: wrong number of bodies";
  (match !(current ()) with
  | Some s when s != sim -> failwith "Sim.run: a different simulation is installed"
  | _ -> current () := Some sim);
  Array.iter
    (fun th ->
      th.clock <- 0;
      th.cont <- None;
      th.finished <- false;
      th.crashed <- false;
      th.stalled_until <- 0)
    sim.threads;
  (* free-running, every thread is runnable at clock 0, and ascending
     tids are a heap; a controlled run keeps no heap *)
  sim.choose <- scheduler;
  sim.ordered <- 0;
  if Option.is_none scheduler then begin
    if Array.length sim.order = 0 then begin
      sim.pend_kind <- Array.make sim.nthreads Read;
      sim.pend_line <- Array.make sim.nthreads (-1);
      sim.order <- Array.make sim.nthreads 0;
      sim.slot <- Array.make sim.nthreads (-1)
    end;
    Array.fill sim.pend_line 0 sim.nthreads (-1);
    Array.fill sim.slot 0 sim.nthreads (-1);
    for tid = 0 to sim.nthreads - 1 do
      order_add sim tid
    done
  end;
  sim.stalled <- [];
  sim.next_wake <- max_int;
  sim.decisions <- 0;
  sim.any_fault <- faults <> [];
  sim.pending_faults <- List.stable_sort (fun a b -> compare a.fe_at b.fe_at) faults;
  sim.crashed_tids <- [];
  Array.fill sim.slow_factor 0 (Array.length sim.slow_factor) 1.0;
  Array.fill sim.slow_until 0 (Array.length sim.slow_until) 0;
  Array.fill sim.pending_msgs 0 (Array.length sim.pending_msgs) [];
  List.iter
    (fun fe ->
      match fe.fe_fault with
      | F_crash | F_stall _ | F_msg _ ->
          if fe.fe_tid < 0 || fe.fe_tid >= sim.nthreads then
            invalid_arg "Sim.run: fault targets an unknown thread"
      | F_numa_slow _ ->
          if fe.fe_tid < 0 || fe.fe_tid >= sim.plat.P.sockets then
            invalid_arg "Sim.run: fault targets an unknown socket")
    faults;
  (* One runnable record serves every decision of the run.  Its
     [r_acts] is indexed by tid and written once per yield point: it is
     both the scheduler's lookahead and the step the thread commits when
     next resumed, and listing the runnable set at a decision stores
     only ints.  A free-running access is recorded in [pend_kind] and
     [pend_line] instead. *)
  sim.runnable <-
    { Simtypes.rn = 0; r_tids = Array.make sim.nthreads 0; r_acts = Array.make sim.nthreads A_start };
  (* the yield point already recorded the step; built once per run, so
     a switch allocates no handler closure *)
  let on_switch =
    Some
      (fun (k : (unit, step) Effect.Deep.continuation) ->
        sim.threads.(sim.cur).cont <- Some k;
        Blocked)
  in
  let handler : (unit, step) Effect.Deep.handler =
    {
      retc = (fun () -> Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Switch -> (on_switch : ((a, step) Effect.Deep.continuation -> step) option)
          | Abort (e, bt) -> Some (fun _ -> Aborted (e, bt))
          | _ -> None);
    }
  in
  let fresh = Array.map (fun b -> Some b) bodies in
  sim.live <- sim.nthreads;
  let makespan = ref 0 in
  (* Resume [tid]: commit its pending action (charging latency), run it
     to its next suspension, and record completion. *)
  let exec_step tid =
    let th = sim.threads.(tid) in
    sim.cur <- tid;
    sim.decisions <- sim.decisions + 1;
    let step =
      match fresh.(tid) with
      | Some body ->
          fresh.(tid) <- None;
          (try Effect.Deep.match_with body () handler
           with e -> raise (Thread_failure (tid, e, Printexc.get_backtrace ())))
      | None -> (
          commit_pending sim th;
          match th.cont with
          | Some k ->
              th.cont <- None;
              (try Effect.Deep.continue k ()
               with e -> raise (Thread_failure (tid, e, Printexc.get_backtrace ())))
          | None -> Finished)
    in
    (match step with
    | Finished ->
        th.finished <- true;
        order_remove sim tid;
        sim.live <- sim.live - 1;
        if th.clock > !makespan then makespan := th.clock
    | Blocked -> ()
    | Aborted (e, bt) ->
        sim.cur <- -1;
        Printexc.raise_with_backtrace e bt);
    sim.cur <- -1
  in
  (* Crash-stop [tid]: it never runs again.  A parked continuation is
     discontinued with {!Thread_killed} so wrapping test code can clean
     up; CSDS code installs no such handlers, so anything the corpse
     held — a lock, a half-linked node — stays exactly as it died.  If
     the body swallows the kill, its replacement continuation is
     dropped: the thread is dead either way. *)
  let kill tid =
    let th = sim.threads.(tid) in
    if not (th.finished || th.crashed) then begin
      th.crashed <- true;
      order_remove sim tid;
      sim.live <- sim.live - 1;
      sim.crashed_tids <- tid :: sim.crashed_tids;
      fresh.(tid) <- None;
      match th.cont with
      | None -> ()
      | Some k ->
          th.cont <- None;
          sim.cur <- tid;
          (try
             ignore (Effect.Deep.discontinue k Thread_killed : step)
           with
          | Thread_killed -> ()
          | e ->
              sim.cur <- -1;
              raise (Thread_failure (tid, e, Printexc.get_backtrace ())));
          th.cont <- None;
          sim.cur <- -1
    end
  in
  (* Each fault leaves the plan after it is applied: a killed thread's
     clean-up code still finds it due (see [yield_point]). *)
  let rec apply_due_faults () =
    match sim.pending_faults with
    | fe :: rest when fe.fe_at <= sim.decisions ->
        (match fe.fe_fault with
        | F_crash -> kill fe.fe_tid
        | F_stall n ->
            let th = sim.threads.(fe.fe_tid) in
            if not (th.finished || th.crashed) then begin
              th.stalled_until <- sim.decisions + max 0 n;
              (* free-running, a live thread out of the heap is already
                 on [stalled] *)
              if sim.ordered > 0 && sim.slot.(th.tid) >= 0 then begin
                order_remove sim th.tid;
                sim.stalled <- th.tid :: sim.stalled
              end;
              sim.next_wake <- min sim.next_wake th.stalled_until
            end
        | F_numa_slow { factor; window } ->
            sim.slow_factor.(fe.fe_tid) <- factor;
            sim.slow_until.(fe.fe_tid) <- sim.decisions + max 0 window
        | F_msg m ->
            (* queue the token; the target thread's next polled message
               boundary consumes it.  Appended, so a plan that stacks
               several tokens on one thread delivers them in fe_at
               order. *)
            sim.pending_msgs.(fe.fe_tid) <- sim.pending_msgs.(fe.fe_tid) @ [ m ]);
        sim.pending_faults <- rest;
        apply_due_faults ()
    | _ -> ()
  in
  sim.next <- -1;
  while sim.live > 0 do
    if sim.any_fault then apply_due_faults ();
    if sim.live > 0 then begin
      let tid =
        if sim.next >= 0 then begin
          let tid = sim.next in
          sim.next <- -1;
          tid
        end
        else decide sim
      in
      if tid >= 0 then exec_step tid
      else begin
        (* every live thread is stalled: jump to the earliest expiry *)
        let wake = ref max_int in
        for tid = 0 to sim.nthreads - 1 do
          let th = sim.threads.(tid) in
          if (not th.finished) && (not th.crashed) && th.stalled_until < !wake then
            wake := th.stalled_until
        done;
        sim.decisions <- max sim.decisions !wake
      end
    end
  done;
  sim.cur <- -1;
  !makespan

(** Scheduling decisions executed so far in the current/last {!run}.
    This is the coordinate system fault events ([fe_at]) live in: one
    decision per resumed simulator step, shared with SCT schedule
    prefixes so fault plans compose with recorded schedules. *)
let decisions sim = sim.decisions

let is_crashed sim tid = sim.threads.(tid).crashed

(** Tids crash-stopped by injected faults, in injection order. *)
let crashed_tids sim = List.rev sim.crashed_tids

(** Install the coherence model's steady state for every allocated line,
    emulating what a long-running benchmark reaches (the paper measures
    5-second runs).  For the directory models: every line backed by
    every socket's LLC, private caches still cold. *)
let warm sim =
  let (Cohmodel.Inst ((module C), cm)) = sim.coh in
  C.warm cm ~nlines:sim.nlines

(** [with_sim ?model ~platform ~nthreads f] installs a fresh
    simulation, runs [f sim] (which typically builds a structure through
    {!Mem} and then calls {!run}), and uninstalls it. *)
let with_sim ?model ~platform ~nthreads f =
  let sim = create ?model ~platform ~nthreads () in
  let saved = !(current ()) in
  current () := Some sim;
  Fun.protect ~finally:(fun () -> current () := saved) (fun () -> f sim)

(** Current clock (cycles) of the executing simulated thread. *)
let now () =
  let sim = the_sim () in
  if sim.cur < 0 then 0 else sim.threads.(sim.cur).clock

(** Pop the next {!msg_fault} token queued (by an [F_msg] fault event)
    for the executing simulated thread, if any.  Message boundaries —
    the service layer's shard-queue sends — call this once per send and
    enact the returned behavior on that message.  [None] always when no
    simulation is installed (native runs), no fault plan is active, or
    the caller isn't a simulated thread, so the polling code needs no
    mode switch. *)
let poll_msg_fault () =
  match !(current ()) with
  | Some sim when sim.any_fault && sim.cur >= 0 -> (
      match sim.pending_msgs.(sim.cur) with
      | [] -> None
      | m :: rest ->
          sim.pending_msgs.(sim.cur) <- rest;
          Some m)
  | _ -> None

(* Operation brackets: the harness marks each operation's start and
   end, and the observer hears them (a profiler groups accesses by
   operation, a trace ring records them).  No-ops unless a simulated
   thread is executing. *)
let notify_op f code =
  match !(current ()) with
  | Some sim when sim.cur >= 0 -> (
      match sim.observer with Some o -> f o sim.cur code | None -> ())
  | _ -> ()

(** Mark the start of harness operation [code] on the executing thread. *)
let op_start code = notify_op (fun o tid code -> o.obs_op_start tid code) code

(** Mark the end of harness operation [code] on the executing thread. *)
let op_end code = notify_op (fun o tid code -> o.obs_op_end tid code) code

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  makespan_cycles : int;
  seconds : float;
  accesses : int;
  hits_l1 : int;
  hits_llc : int;
  transfers_local : int;
  transfers_remote : int;
  fetch_remote : int;
  misses_mem : int;
  atomics : int;
  stores : int;  (** plain (non-RMW) stores; stores + atomics = all writes *)
  energy_j : float;  (** dynamic + static energy over the makespan *)
  power_w : float;
  events : int array;
}

(** One thread's memory-event counters (the per-thread slice of
    {!run_stats}): every coherence service class — the [Tc_*] trace
    classes — plus plain stores and RMWs, accumulated unconditionally, so
    stores-per-op and cache-line-transfer breakdowns need no observer. *)
type thread_stats = {
  t_tid : int;
  t_accesses : int;
  t_l1 : int;
  t_llc : int;
  t_c2c_local : int;
  t_c2c_remote : int;
  t_llc_remote : int;
  t_mem : int;
  t_atomics : int;
  t_stores : int;
  t_energy_nj : float;
}

(** Per-thread counters of the last {!run}, ascending tid. *)
let per_thread_stats sim =
  Array.mapi
    (fun tid (c : mem_counters) ->
      {
        t_tid = tid;
        t_accesses = c.accesses;
        t_l1 = c.l1;
        t_llc = c.llc;
        t_c2c_local = c.c2c_local;
        t_c2c_remote = c.c2c_remote;
        t_llc_remote = c.llc_remote;
        t_mem = c.mem;
        t_atomics = c.rmw;
        t_stores = c.writes;
        t_energy_nj = c.energy.nj;
      })
    sim.counters

(** Aggregate statistics of the last {!run}.  [makespan] is the value
    {!run} returned. *)
let stats sim ~makespan =
  let seconds = float_of_int makespan /. (sim.plat.P.ghz *. 1e9) in
  let agg = fresh_counters () in
  Array.iter
    (fun (c : mem_counters) ->
      agg.accesses <- agg.accesses + c.accesses;
      agg.l1 <- agg.l1 + c.l1;
      agg.llc <- agg.llc + c.llc;
      agg.c2c_local <- agg.c2c_local + c.c2c_local;
      agg.c2c_remote <- agg.c2c_remote + c.c2c_remote;
      agg.llc_remote <- agg.llc_remote + c.llc_remote;
      agg.mem <- agg.mem + c.mem;
      agg.rmw <- agg.rmw + c.rmw;
      agg.writes <- agg.writes + c.writes;
      agg.energy.nj <- agg.energy.nj +. c.energy.nj)
    sim.counters;
  let busy_cores =
    let seen = Array.make sim.plat.P.cores false in
    Array.iter (fun th -> seen.(th.core) <- true) sim.threads;
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
  in
  let static_j = em.P.w_static_core *. float_of_int busy_cores *. seconds in
  let energy_j = (agg.energy.nj *. 1e-9) +. static_j in
  let events = Array.make Event.count 0 in
  Array.iter (fun row -> Array.iteri (fun i v -> events.(i) <- events.(i) + v) row) sim.events;
  {
    makespan_cycles = makespan;
    seconds;
    accesses = agg.accesses;
    hits_l1 = agg.l1;
    hits_llc = agg.llc;
    transfers_local = agg.c2c_local;
    transfers_remote = agg.c2c_remote;
    fetch_remote = agg.llc_remote;
    misses_mem = agg.mem;
    atomics = agg.rmw;
    stores = agg.writes;
    energy_j;
    power_w = (if seconds > 0.0 then energy_j /. seconds else 0.0);
    events;
  }

(** All accesses that were not private-cache hits. *)
let misses st =
  st.hits_llc + st.transfers_local + st.transfers_remote + st.fetch_remote + st.misses_mem
