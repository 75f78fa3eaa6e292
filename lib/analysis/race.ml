(** Happens-before data-race detection over the simulator's access
    stream, in the FastTrack tradition (vector clocks, per-location write
    epochs), adapted to the codebase's synchronization idiom:

    - {b RMW accesses are the synchronization operations.}  Every lock in
      the tree acquires through [Mem.cas]/[fetch_and_add], and lock-free
      designs publish through CAS.  A successful RMW on a line is an
      acquire {e and} release on that line; a failed CAS acquires only
      (it read the line but wrote nothing).
    - {b Plain writes release into their line} — [Mem.set] is how every
      lock here is handed off ([release] is a plain store of 0), so the
      next successful RMW on the line inherits the critical section's
      clock.  The release alone creates no order: it matters only if a
      later RMW acquires it.
    - {b Races are unordered plain-write pairs to the same line.}
      Write-read pairs are deliberately not flagged: asynchronized reads
      against concurrent writers are the paper's whole point (ASCY1
      searches race with updates by design), and under the simulator's
      sequentially-consistent memory they are benign.  Plain-write vs RMW
      pairs are also exempt: nodes share a cache line with their lock
      word, so a field store under the lock "conflicts" with a peer's
      (failed) acquire CAS on line granularity without any actual
      overlap.  What remains — two plain stores to the same line with no
      happens-before path — is exactly the pattern that is unsound no
      matter the memory model.

    Setup/prefill accesses never reach the observer, so initialization is
    implicitly ordered before every thread. *)

module Sim = Ascy_mem.Sim

type race = {
  r_line : int;
  r_tid_prev : int;  (** thread of the earlier unordered plain write *)
  r_tid : int;  (** thread whose write detected the race *)
}

let describe r =
  Printf.sprintf "data race: plain writes to line %d by threads %d and %d unordered by happens-before"
    r.r_line r.r_tid_prev r.r_tid

(* Per-line state, allocated on first write/RMW. *)
type line_state = {
  lvc : int array;  (** accumulated releases into this line *)
  lw : int array;  (** per-thread clock of its last plain write *)
}

type t = {
  n : int;
  vcs : int array array;  (** per-thread vector clocks *)
  lines : (int, line_state) Hashtbl.t;
  pending : int array;  (** line of the in-flight RMW per thread, or -1 *)
  seen : (int * int * int, unit) Hashtbl.t;
  mutable races : race list; (* newest first *)
  mutable count : int;
}

let max_recorded = 1000

let create ~nthreads =
  {
    n = nthreads;
    vcs = Array.init nthreads (fun _ -> Array.make nthreads 0);
    lines = Hashtbl.create 256;
    pending = Array.make nthreads (-1);
    seen = Hashtbl.create 64;
    races = [];
    count = 0;
  }

let line_state t line =
  match Hashtbl.find_opt t.lines line with
  | Some ls -> ls
  | None ->
      let ls = { lvc = Array.make t.n 0; lw = Array.make t.n 0 } in
      Hashtbl.add t.lines line ls;
      ls

let join dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let record t line prev tid =
  let a, b = if prev < tid then (prev, tid) else (tid, prev) in
  if not (Hashtbl.mem t.seen (line, a, b)) then begin
    Hashtbl.add t.seen (line, a, b) ();
    t.count <- t.count + 1;
    if t.count <= max_recorded then
      t.races <- { r_line = line; r_tid_prev = prev; r_tid = tid } :: t.races
  end

let on_access t tid kind line =
  match (kind : Sim.access_kind) with
  | Sim.Read -> ()
  | Sim.Rmw -> t.pending.(tid) <- line (* sync effect applied on outcome *)
  | Sim.Write ->
      let ls = line_state t line in
      let vc = t.vcs.(tid) in
      for u = 0 to t.n - 1 do
        if u <> tid && ls.lw.(u) > vc.(u) then record t line u tid
      done;
      ls.lw.(tid) <- vc.(tid);
      join ls.lvc vc;
      vc.(tid) <- vc.(tid) + 1

let on_rmw t tid ok =
  let line = t.pending.(tid) in
  if line >= 0 then begin
    t.pending.(tid) <- -1;
    let ls = line_state t line in
    let vc = t.vcs.(tid) in
    join vc ls.lvc;
    (* acquire *)
    if ok then begin
      join ls.lvc vc;
      (* release *)
      vc.(tid) <- vc.(tid) + 1
    end
  end

(** The observer feeding this detector; attach it as a session's
    [config.observer]. *)
let observer t : Sim.observer =
  {
    Sim.obs_access = (fun tid kind line _ -> on_access t tid kind line);
    obs_rmw = (fun tid ok -> on_rmw t tid ok);
    obs_event = (fun _ _ -> ());
    obs_op_start = (fun _ _ -> ());
    obs_op_end = (fun _ _ -> ());
  }

(** Distinct races detected so far (capped at 1000 records), oldest
    first.  [total] counts every distinct (line, thread-pair) race even
    past the cap. *)
let races t = List.rev t.races

let total t = t.count

(** The canonical race-oracle description of the run [t] observed, if
    it saw any race.  The exact string is part of the replay-file
    contract (counterexample descriptions must reproduce bit-for-bit),
    so every oracle goes through here. *)
let violation t =
  if t.count = 0 then None
  else
    Some
      (Printf.sprintf "%d distinct data race(s); first: %s" t.count
         (describe (List.hd (races t))))
