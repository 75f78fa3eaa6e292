(** Per-thread trace rings over the simulator's observer stream.

    A ring records every operation bracket ({!Ascy_mem.Sim.op_start} /
    [op_end]) and every committed memory access of each simulated
    thread, with the coherence path that served the access and the
    thread's cycle stamp.  It is an observer like {!Race} and {!Profile}:
    attach {!observer} as a session's [config.observer] (compose it with
    others through {!Ascy_mem.Sim.compose_observers}); a run without it
    pays nothing.  Each thread keeps its newest [capacity] entries.

    Stamps are the thread's clock when the observer hears the event: an
    access is stamped with the cycle it was issued at, except for the
    lines of a k-CAS commit, which are reported together once the commit
    has applied and so all carry the clock after the whole commit. *)

module Sim = Ascy_mem.Sim

type event =
  | T_op_start of int  (** harness-assigned operation code *)
  | T_op_end of int
  | T_access of Sim.access_kind * int * Sim.trace_class  (** kind, line id, service class *)

type entry = { tr_cycle : int; tr_ev : event }

(* Fixed-capacity ring: the newest [cap] entries survive; older ones are
   overwritten ([total] still counts every event ever pushed). *)
type ring = {
  buf : entry array;
  mutable n : int; (* live entries, <= capacity *)
  mutable next : int; (* slot the next push writes *)
  mutable total : int;
}

type t = { cap : int; rings : ring array }

let dummy = { tr_cycle = 0; tr_ev = T_op_start 0 }

(** [create ~nthreads ~capacity] makes one empty ring of [capacity]
    entries per simulated thread. *)
let create ~nthreads ~capacity =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  {
    cap = capacity;
    rings =
      Array.init nthreads (fun _ ->
          { buf = Array.make capacity dummy; n = 0; next = 0; total = 0 });
  }

let push t tid ev =
  let b = t.rings.(tid) in
  b.buf.(b.next) <- { tr_cycle = Sim.now (); tr_ev = ev };
  b.next <- (b.next + 1) mod t.cap;
  if b.n < t.cap then b.n <- b.n + 1;
  b.total <- b.total + 1

(** The observer feeding these rings. *)
let observer t : Sim.observer =
  {
    Sim.obs_access = (fun tid kind line cls -> push t tid (T_access (kind, line, cls)));
    obs_rmw = (fun _ _ -> ());
    obs_event = (fun _ _ -> ());
    obs_op_start = (fun tid code -> push t tid (T_op_start code));
    obs_op_end = (fun tid code -> push t tid (T_op_end code));
  }

(** Events ever pushed to [tid]'s ring (retained or overwritten). *)
let total t tid = t.rings.(tid).total

(** Retained entries of [tid], oldest first. *)
let entries t tid =
  let b = t.rings.(tid) in
  let start = (b.next - b.n + t.cap) mod t.cap in
  List.init b.n (fun i -> b.buf.((start + i) mod t.cap))

let class_name = Ascy_mem.Simtypes.trace_class_name

let kind_name = function Sim.Read -> "R" | Sim.Write -> "W" | Sim.Rmw -> "RMW"

let pp_entry ?(op_name = string_of_int) tid e =
  match e.tr_ev with
  | T_op_start code -> Printf.sprintf "t%-3d @%-10d op_start %s" tid e.tr_cycle (op_name code)
  | T_op_end code -> Printf.sprintf "t%-3d @%-10d op_end   %s" tid e.tr_cycle (op_name code)
  | T_access (kind, line, cls) ->
      Printf.sprintf "t%-3d @%-10d %-3s line=%-6d %s" tid e.tr_cycle (kind_name kind) line
        (class_name cls)

let entry_json tid e =
  let module J = Ascy_util.Json in
  let common = [ ("tid", J.Int tid); ("cycle", J.Int e.tr_cycle) ] in
  J.Obj
    (match e.tr_ev with
    | T_op_start code -> common @ [ ("ev", J.String "op_start"); ("op", J.Int code) ]
    | T_op_end code -> common @ [ ("ev", J.String "op_end"); ("op", J.Int code) ]
    | T_access (kind, line, cls) ->
        common
        @ [
            ("ev", J.String "access");
            ("kind", J.String (kind_name kind));
            ("line", J.Int line);
            ("class", J.String (class_name cls));
          ])

(** [dump ?json ?op_name oc t] renders every thread's retained entries,
    oldest first per thread.  Text (default) is one line per event;
    [~json:true] emits one JSON array of event objects. *)
let dump ?(json = false) ?op_name oc t =
  if json then begin
    let entries_json =
      List.concat
        (List.init (Array.length t.rings) (fun tid -> List.map (entry_json tid) (entries t tid)))
    in
    output_string oc (Ascy_util.Json.to_string ~indent:1 (Ascy_util.Json.List entries_json));
    output_string oc "\n"
  end
  else
    Array.iteri
      (fun tid b ->
        Printf.fprintf oc "-- thread %d: %d events (%d retained)\n" tid b.total b.n;
        List.iter (fun e -> Printf.fprintf oc "%s\n" (pp_entry ?op_name tid e)) (entries t tid))
      t.rings
