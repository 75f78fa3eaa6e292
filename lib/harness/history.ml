(** Operation-history recording and linearizability checking for small
    traced runs.

    The simulator gives every operation an invocation and a response
    cycle stamp (per-thread clocks advance as accesses are charged, and
    the scheduler interleaves threads by clock, so cycle stamps are the
    simulated real-time order).  An execution is linearizable iff every
    operation can be assigned a linearization point between its
    invocation and response such that the resulting sequential history
    satisfies the set semantics.

    Set operations on distinct keys commute and their results depend
    only on that key's membership, so the search is decomposed per key:
    each key's sub-history is checked independently against a single
    boolean membership state with the classic Wing&Gong recursion
    (repeatedly linearize some minimal pending operation whose result
    matches the sequential semantics), memoizing visited
    (linearized-set, membership) states.  This is exact — sound and
    complete — for set histories, and fast for the small per-key
    histories the conformance tests record. *)

type op_kind = Workload.op = Search | Insert | Remove

let kind_name = function Search -> "search" | Insert -> "insert" | Remove -> "remove"

type event = {
  tid : int;
  kind : op_kind;
  key : int;
  result : bool;  (** search: found; insert/remove: succeeded *)
  inv : int;  (** invocation cycle stamp *)
  res : int;  (** response cycle stamp *)
}

type t = { mutable events : event list; mutable nevents : int; initial : (int, unit) Hashtbl.t }

let create () = { events = []; nevents = 0; initial = Hashtbl.create 64 }

(** Declare [key] present before the measured run (prefill). *)
let add_initial t key = Hashtbl.replace t.initial key ()

let record t ~tid ~kind ~key ~result ~inv ~res =
  t.events <- { tid; kind; key; result; inv; res } :: t.events;
  t.nevents <- t.nevents + 1

let length t = t.nevents

type violation = { v_key : int; v_detail : string }

let pp_violation v = Printf.sprintf "key %d: %s" v.v_key v.v_detail

exception Too_large of int

(* Cap on operations per key: the checker is worst-case exponential, so
   refuse histories far beyond what the memoized search handles fast. *)
let max_ops_per_key = 62

(* Check one key's sub-history. [ops] is an array of events on this key;
   [initial] is the key's starting membership. *)
let check_key ~key ~initial ops =
  let n = Array.length ops in
  if n > max_ops_per_key then raise (Too_large n);
  let full = (1 lsl n) - 1 in
  (* Memoize states that already failed: membership is a bool, so a
     state is (linearized mask, membership). *)
  let seen = Hashtbl.create 256 in
  let rec go mask present =
    mask = full
    || (not (Hashtbl.mem seen (mask, present)))
       && begin
            Hashtbl.add seen (mask, present) ();
            (* earliest response among pending ops: anything invoked after
               it cannot be linearized next *)
            let min_res = ref max_int in
            for i = 0 to n - 1 do
              if mask land (1 lsl i) = 0 && ops.(i).res < !min_res then min_res := ops.(i).res
            done;
            let ok = ref false in
            let i = ref 0 in
            while (not !ok) && !i < n do
              let idx = !i in
              incr i;
              if mask land (1 lsl idx) = 0 && ops.(idx).inv <= !min_res then begin
                let op = ops.(idx) in
                let expected, present' =
                  match op.kind with
                  | Search -> (present, present)
                  | Insert -> (not present, true)
                  | Remove -> (present, false)
                in
                if op.result = expected && go (mask lor (1 lsl idx)) present' then ok := true
              end
            done;
            !ok
          end
  in
  if go 0 initial then Ok ()
  else
    Error
      {
        v_key = key;
        v_detail =
          Printf.sprintf
            "no linearization of %d operation(s) matches set semantics (initial=%b): %s" n initial
            (String.concat "; "
               (List.map
                  (fun o ->
                    Printf.sprintf "t%d %s->%b @[%d,%d]" o.tid (kind_name o.kind) o.result o.inv
                      o.res)
                  (Array.to_list ops)));
      }

(** [check t] returns [Ok ()] iff the recorded history is linearizable
    with respect to the sequential set semantics, [Error v] naming a key
    whose sub-history admits no valid linearization.  Raises {!Too_large}
    if some key has more than {!max_ops_per_key} operations. *)
let check t =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let l = try Hashtbl.find by_key e.key with Not_found -> [] in
      Hashtbl.replace by_key e.key (e :: l))
    t.events;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_key [] in
  let rec loop = function
    | [] -> Ok ()
    | k :: rest -> (
        let ops = Array.of_list (Hashtbl.find by_key k) in
        (* sort by invocation for deterministic search order *)
        Array.sort (fun a b -> compare (a.inv, a.res) (b.inv, b.res)) ops;
        match check_key ~key:k ~initial:(Hashtbl.mem t.initial k) ops with
        | Ok () -> loop rest
        | Error _ as e -> e)
  in
  loop (List.sort compare keys)

let linearizable t = match check t with Ok () -> true | Error _ -> false
