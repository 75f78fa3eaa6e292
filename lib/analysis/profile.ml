(** Per-operation access profiles over the simulator's observer stream.

    A {!t} attaches to a run as a session's observer
    ([Ascy_harness.Engine.config.observer]) and
    splits every committed access and algorithm event of every operation
    into a {e parse} and a {e modify} bucket — exactly the accounting the
    ASCY patterns (paper §5) are stated in:

    - the parse phase opens at {!Ascy_mem.Event.parse} and closes at
      {!Ascy_mem.Event.parse_end} (or at the next restart that re-emits
      [parse], which re-opens it); everything outside an open parse is
      the modify phase;
    - plain stores and RMWs are counted separately, and a CAS is
      attributed by its {e outcome} (a failed CAS wrote nothing, which
      matters for ASCY3: a lost decision CAS must not read as a store);
    - semantic events (restarts, waits, lock acquisitions, clean-ups,
      helping) are folded into the bucket they occur in.

    Operations are delimited by the harness's
    {!Ascy_mem.Sim.op_start}/[op_end] brackets — profiling is always
    available and costs nothing when no observer is installed.  The
    operation's outcome is supplied by the runner via {!set_outcome}
    before the closing bracket. *)

module Sim = Ascy_mem.Sim
module E = Ascy_mem.Event
module J = Ascy_util.Json

(** Access/event counts of one phase of one operation. *)
type counts = {
  mutable writes : int;  (** plain stores *)
  mutable rmw_ok : int;  (** successful CAS / fetch-and-add *)
  mutable rmw_fail : int;  (** failed CAS (no store took place) *)
  mutable reads : int;
  mutable restarts : int;
  mutable waits : int;
  mutable locks : int;
  mutable cleanups : int;
  mutable helps : int;
  mutable cas_fails : int;  (** [E.cas_fail] emissions *)
}

let fresh_counts () =
  {
    writes = 0;
    rmw_ok = 0;
    rmw_fail = 0;
    reads = 0;
    restarts = 0;
    waits = 0;
    locks = 0;
    cleanups = 0;
    helps = 0;
    cas_fails = 0;
  }

(** Stores that took effect in this phase: plain writes plus successful
    RMWs. *)
let stores c = c.writes + c.rmw_ok

(** Weighted store cost: a successful RMW counts double, reflecting the
    paper's separate accounting of stores and CAS (an atomic costs about
    two plain stores' worth of coherence traffic). *)
let weighted c = c.writes + (2 * c.rmw_ok)

type op_profile = {
  p_tid : int;
  p_op : int;  (** harness op code: 0 search / 1 insert / 2 remove *)
  mutable p_ok : bool;
  p_parse : counts;
  p_modify : counts;
}

let is_update p = p.p_op <> 0

(* Per-thread profiling state. *)
type tstate = { mutable cur : op_profile option; mutable in_parse : bool }

type t = {
  threads : tstate array;
  mutable ops : op_profile list; (* newest first *)
  mutable nops : int;
}

let create ~nthreads =
  {
    threads = Array.init nthreads (fun _ -> { cur = None; in_parse = false });
    ops = [];
    nops = 0;
  }

(* The active bucket of [tid], if an operation is open; accesses outside
   any op (op_done reclamation, harness glue) are not attributed. *)
let bucket t tid =
  let ts = t.threads.(tid) in
  match ts.cur with
  | None -> None
  | Some p -> Some (if ts.in_parse then p.p_parse else p.p_modify)

let on_access t tid kind _line =
  match bucket t tid with
  | None -> ()
  | Some b -> (
      match (kind : Sim.access_kind) with
      | Sim.Read -> b.reads <- b.reads + 1
      | Sim.Write -> b.writes <- b.writes + 1
      | Sim.Rmw -> () (* attributed on outcome, in on_rmw *))

let on_rmw t tid ok =
  match bucket t tid with
  | None -> ()
  | Some b -> if ok then b.rmw_ok <- b.rmw_ok + 1 else b.rmw_fail <- b.rmw_fail + 1

let on_event t tid code =
  let ts = t.threads.(tid) in
  if code = E.parse then ts.in_parse <- ts.cur <> None
  else if code = E.parse_end then ts.in_parse <- false
  else
    match bucket t tid with
    | None -> ()
    | Some b ->
        if code = E.restart then b.restarts <- b.restarts + 1
        else if code = E.wait then b.waits <- b.waits + 1
        else if code = E.lock then b.locks <- b.locks + 1
        else if code = E.cleanup then b.cleanups <- b.cleanups + 1
        else if code = E.help then b.helps <- b.helps + 1
        else if code = E.cas_fail then b.cas_fails <- b.cas_fails + 1

let on_op_start t tid code =
  let ts = t.threads.(tid) in
  ts.in_parse <- false;
  ts.cur <-
    Some { p_tid = tid; p_op = code; p_ok = false; p_parse = fresh_counts (); p_modify = fresh_counts () }

let on_op_end t tid _code =
  let ts = t.threads.(tid) in
  (match ts.cur with
  | Some p ->
      t.ops <- p :: t.ops;
      t.nops <- t.nops + 1
  | None -> ());
  ts.cur <- None;
  ts.in_parse <- false

(** Record the outcome of [tid]'s open operation; the runner calls this
    after the operation returns and before {!Ascy_mem.Sim.op_end}. *)
let set_outcome t ~tid ~ok =
  match t.threads.(tid).cur with Some p -> p.p_ok <- ok | None -> ()

(** The observer feeding this collector; attach it as a session's
    [config.observer]. *)
let observer t : Sim.observer =
  {
    Sim.obs_access = (fun tid kind line _ -> on_access t tid kind line);
    obs_rmw = (fun tid ok -> on_rmw t tid ok);
    obs_event = (fun tid code -> on_event t tid code);
    obs_op_start = (fun tid code -> on_op_start t tid code);
    obs_op_end = (fun tid code -> on_op_end t tid code);
  }

(** Recorded operation profiles, oldest first. *)
let ops t = List.rev t.ops

(* ------------------------------------------------------------------ *)
(* Serialization (offending-op evidence in ASCY_CHECK.json)            *)
(* ------------------------------------------------------------------ *)

let counts_json c =
  J.Obj
    [
      ("writes", J.Int c.writes);
      ("rmw_ok", J.Int c.rmw_ok);
      ("rmw_fail", J.Int c.rmw_fail);
      ("reads", J.Int c.reads);
      ("restarts", J.Int c.restarts);
      ("waits", J.Int c.waits);
      ("locks", J.Int c.locks);
      ("cleanups", J.Int c.cleanups);
      ("helps", J.Int c.helps);
      ("cas_fails", J.Int c.cas_fails);
    ]

let op_name = function 0 -> "search" | 1 -> "insert" | 2 -> "remove" | c -> string_of_int c

let op_json p =
  J.Obj
    [
      ("tid", J.Int p.p_tid);
      ("op", J.String (op_name p.p_op));
      ("ok", J.Bool p.p_ok);
      ("parse", counts_json p.p_parse);
      ("modify", counts_json p.p_modify);
    ]
