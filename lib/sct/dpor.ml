(** Partial-order-reduction primitives: the dependency relation, sleep
    sets, and an incremental conflict index over the steps on the
    explorer's current DFS path.

    Two interleavings that only commute {e independent} steps (different
    lines, or same line but read/read) reach the same memory state and
    return the same results, so exploring both is wasted work.  The
    explorer prunes with the two classic mechanisms:

    - {e backtrack points} (Flanagan & Godefroid DPOR): for each executed
      access find the latest earlier step by another thread it conflicts
      with; the conflicting pair might matter in the other order, so the
      other thread is scheduled for exploration at the earlier decision
      point.  Only the steps a run {e added} below the previous run's
      backtrack point are looked up: they are pushed onto an undoable
      per-line {!index}, so a run costs O(new steps × threads), not a
      rescan of the whole run;
    - {e sleep sets}: a choice fully explored at a node is put to sleep;
      it stays asleep in the subtrees of the node's later choices until
      a dependent step wakes it, and sleeping choices are never
      re-explored.

    The dependency relation is exactly the per-line read/write conflict
    information the coherence model already tracks
    ({!Ascy_mem.Sim.dependent}). *)

module Sim = Ascy_mem.Sim

let dependent = Sim.dependent

(* ------------------------------------------------------------------ *)
(* Sleep sets                                                          *)
(* ------------------------------------------------------------------ *)

type sleep = (int * Sim.action) list

let empty_sleep : sleep = []
let in_sleep tid (s : sleep) = List.exists (fun (t, _) -> t = tid) s

let add_sleep tid action (s : sleep) : sleep =
  if in_sleep tid s then s else (tid, action) :: s

(** Taking [action] wakes every sleeping thread whose pending action
    depends on it (the commutation argument no longer applies).  [s]
    itself when nothing wakes. *)
let wake action (s : sleep) : sleep =
  match s with
  | [] -> s
  | _ ->
      if List.exists (fun (_, a) -> dependent a action) s then
        List.filter (fun (_, a) -> not (dependent a action)) s
      else s

(* ------------------------------------------------------------------ *)
(* Incremental conflict index                                          *)
(* ------------------------------------------------------------------ *)

(** The steps of the current DFS path, indexed by line so that a new
    step's {e last conflict} — the latest earlier step by a different
    thread that is {!dependent} on it — is a max over the other threads,
    not a backward scan of the run.

    It also decides {e stutters}, the no-progress steps of spin loops: a
    read is a stutter when its thread's previous access read the same
    line and nobody wrote that line in between — the read is guaranteed
    to observe the same value (a TTAS iteration finding the lock still
    held, a seqlock retry seeing an odd sequence again, ...).  Stutters
    are excluded from backtrack-point computation on both sides: they
    have no last conflict and are never one.  Reordering a conflicting
    write around the k-th spin read is Mazurkiewicz-equivalent (up to
    spin count, which no oracle observes) to reordering it around the
    first read of the spin, and that first read is not a stutter, so the
    representative interleaving is still explored.  Without this
    reduction every spin iteration against a held lock is a fresh
    conflict site and DPOR's schedule count grows without bound on
    lock-based structures (the classic SCT spin-loop problem, cf.
    CHESS's yield-aware reduction).  Backoff work steps ([A_work]) touch
    no memory and do not break a spin.

    Every overwritten cell goes on a trail, a monomorphic int stack
    ([trail] and [trail_len]) of (cell, old value) pairs, so the
    explorer rewinds the index to any earlier step with {!undo_to} when
    it backtracks; an int stack stores without a write barrier.  Lines
    are dense session ids, so all state is flat [int array]s of size
    O(lines × threads). *)
type index = {
  threads : int;
  mutable last_write : int array;
      (** [line * threads + tid] -> latest write or k-CAS step of [tid] on [line], or -1 *)
  mutable last_access : int array;
      (** [line * threads + tid] -> latest non-stutter access of [tid] to [line], or -1 *)
  read_line : int array;  (** tid -> line of its latest access if that was a read, else -1 *)
  read_step : int array;  (** tid -> the latest non-stutter read of [read_line] *)
  mutable trail : int array;  (** (cell, old value) pairs; cell = [slot lsl 2 lor tag] *)
  mutable trail_len : int;
}

(* trail tags: which array a cell belongs to *)
let t_write = 0
and t_access = 1
and t_read_line = 2
and t_read_step = 3

let cells ix = function
  | 0 -> ix.last_write
  | 1 -> ix.last_access
  | 2 -> ix.read_line
  | _ -> ix.read_step

let create_index ~threads =
  {
    threads;
    last_write = [||];
    last_access = [||];
    read_line = Array.make threads (-1);
    read_step = Array.make threads (-1);
    trail = Array.make 1024 0;
    trail_len = 0;
  }

(** The index's current position, for a later {!undo_to}. *)
let mark ix = ix.trail_len

(** Restore every cell overwritten since [m] was taken: the index is
    again exactly what the steps pushed before [m] built ([undo_to ix 0]
    empties it, so one index serves many explorations). *)
let undo_to ix m =
  if m < 0 || m > ix.trail_len then invalid_arg "Dpor.undo_to";
  let tr = ix.trail in
  let k = ref ix.trail_len in
  while !k > m do
    let cell = tr.(!k - 2) in
    (cells ix (cell land 3)).(cell lsr 2) <- tr.(!k - 1);
    k := !k - 2
  done;
  ix.trail_len <- m

(* Lines past the capacity have seen no step: their cells hold the
   default, so growing needs no trail entry. *)
let ensure_line ix l =
  let size = Array.length ix.last_write in
  if (l + 1) * ix.threads > size then begin
    let extend a =
      let b = Array.make (max ((l + 1) * ix.threads) (2 * size)) (-1) in
      Array.blit a 0 b 0 size;
      b
    in
    ix.last_write <- extend ix.last_write;
    ix.last_access <- extend ix.last_access
  end

let set ix tag slot v =
  let a = cells ix tag in
  let old = a.(slot) in
  if old <> v then begin
    let n = ix.trail_len in
    if n + 2 > Array.length ix.trail then begin
      let tr = Array.make (2 * Array.length ix.trail) 0 in
      Array.blit ix.trail 0 tr 0 n;
      ix.trail <- tr
    end;
    ix.trail.(n) <- (slot lsl 2) lor tag;
    ix.trail.(n + 1) <- old;
    ix.trail_len <- n + 2;
    a.(slot) <- v
  end

(* The latest step in [a] on line [l] by a thread other than [tid]. *)
let latest_other ix (a : int array) l tid =
  let base = l * ix.threads in
  let m = ref (-1) in
  for t = 0 to ix.threads - 1 do
    if t <> tid && a.(base + t) > !m then m := a.(base + t)
  done;
  !m

let write ix i tid l =
  let slot = (l * ix.threads) + tid in
  set ix t_write slot i;
  set ix t_access slot i

(** What {!step} returns for a stutter, which has no last conflict. *)
let stutter = -2

(** [step ix i tid action] pushes step [i] — [tid] performing [action]
    — onto the path.  Steps must be pushed in order, [i] being the
    number of steps pushed before it.  Returns the step's last
    conflict: the latest earlier non-stutter step by another thread
    that is {!dependent} on it, -1 if there is none, or {!stutter}.
    O(threads × lines touched). *)
let step ix i tid action =
  if tid < 0 || tid >= ix.threads then invalid_arg "Dpor.step: tid out of range";
  match action with
  | Sim.A_access (Sim.Read, l) ->
      ensure_line ix l;
      (* the thread's own writes end its read streak, so only other
         threads' writes can break a spin *)
      let c = latest_other ix ix.last_write l tid in
      if ix.read_line.(tid) = l && c < ix.read_step.(tid) then stutter
      else begin
        set ix t_access ((l * ix.threads) + tid) i;
        set ix t_read_line tid l;
        set ix t_read_step tid i;
        c
      end
  | Sim.A_access ((Sim.Write | Sim.Rmw), l) ->
      ensure_line ix l;
      let c = latest_other ix ix.last_access l tid in
      write ix i tid l;
      set ix t_read_line tid (-1);
      c
  | Sim.A_kcas lines ->
      (* a k-CAS commit writes every touched line *)
      Array.iter (ensure_line ix) lines;
      let c = Array.fold_left (fun c l -> max c (latest_other ix ix.last_access l tid)) (-1) lines in
      Array.iter (write ix i tid) lines;
      set ix t_read_line tid (-1);
      c
  | Sim.A_start | Sim.A_work _ -> -1
