(** Serializable, replayable schedules.

    A counterexample found by the explorer is just an array of thread
    ids — one per simulator decision point.  Because the simulator is
    deterministic, (program, schedule prefix) reproduces a failure
    bit-for-bit: replaying follows the prefix and continues with the
    default policy, which is exactly how the explorer ran it.

    The on-disk format is JSON.  Schema version 1:
    {v
    {
      "version": 1,
      "kind": "ascy-sct-schedule",
      "prefix": [[tid, len], ...],   // run-length encoded decisions
      "meta": { ... }                // caller-defined replay context
    }
    v}
    Schema version 2 (written only when a fault plan is present) adds a
    ["faults"] array of fault events in the same decision coordinate
    system as the prefix:
    {v
      "faults": [
        {"at": D, "tid": T, "fault": "crash"},
        {"at": D, "tid": T, "fault": "stall", "decisions": N},
        {"at": D, "socket": S, "fault": "numa-slow",
         "factor": F, "window": W},
        {"at": D, "tid": T, "fault": "drop"},
        {"at": D, "tid": T, "fault": "dup"},
        {"at": D, "tid": T, "fault": "delay", "sends": N}, ...
      ]
    v}
    A file with no faults is always written as (and byte-identical to)
    schema version 1, so pre-fault tooling and golden files are
    untouched.  [meta] is opaque to this module; [Ascy_harness.Sct_run]
    stores the algorithm name, platform, thread count, per-thread
    operation scripts and the violation message there, so a schedule
    file is a complete, self-contained reproduction recipe. *)

module J = Ascy_util.Json
module Sim = Ascy_mem.Sim

let schema_version = 1
let schema_version_faults = 2
let kind = "ascy-sct-schedule"

let fault_to_json fe =
  match fe.Sim.fe_fault with
  | Sim.F_crash ->
      J.Obj
        [ ("at", J.Int fe.Sim.fe_at); ("tid", J.Int fe.Sim.fe_tid); ("fault", J.String "crash") ]
  | Sim.F_stall n ->
      J.Obj
        [
          ("at", J.Int fe.Sim.fe_at);
          ("tid", J.Int fe.Sim.fe_tid);
          ("fault", J.String "stall");
          ("decisions", J.Int n);
        ]
  | Sim.F_numa_slow { factor; window } ->
      J.Obj
        [
          ("at", J.Int fe.Sim.fe_at);
          ("socket", J.Int fe.Sim.fe_tid);
          ("fault", J.String "numa-slow");
          ("factor", J.Float factor);
          ("window", J.Int window);
        ]
  | Sim.F_msg Sim.Msg_drop ->
      J.Obj
        [ ("at", J.Int fe.Sim.fe_at); ("tid", J.Int fe.Sim.fe_tid); ("fault", J.String "drop") ]
  | Sim.F_msg Sim.Msg_dup ->
      J.Obj
        [ ("at", J.Int fe.Sim.fe_at); ("tid", J.Int fe.Sim.fe_tid); ("fault", J.String "dup") ]
  | Sim.F_msg (Sim.Msg_delay n) ->
      J.Obj
        [
          ("at", J.Int fe.Sim.fe_at);
          ("tid", J.Int fe.Sim.fe_tid);
          ("fault", J.String "delay");
          ("sends", J.Int n);
        ]

let to_json ?(meta = []) ?(faults = []) ~prefix () =
  J.Obj
    (("version", J.Int (if faults = [] then schema_version else schema_version_faults))
     :: ("kind", J.String kind)
     :: ( "prefix",
          J.List
            (List.map
               (fun (tid, len) -> J.List [ J.Int tid; J.Int len ])
               (Scheduler.to_chunks prefix)) )
     :: (if faults = [] then [] else [ ("faults", J.List (List.map fault_to_json faults)) ])
    @ [ ("meta", J.Obj meta) ])

exception Bad_schedule of string

let fail msg = raise (Bad_schedule msg)

let fault_of_json j =
  let int k = match J.member k j with Some (J.Int v) -> v | _ -> fail "malformed fault event" in
  let at = int "at" in
  if at < 0 then fail "malformed fault event";
  match J.member "fault" j with
  | Some (J.String "crash") -> { Sim.fe_at = at; fe_tid = int "tid"; fe_fault = Sim.F_crash }
  | Some (J.String "stall") ->
      { Sim.fe_at = at; fe_tid = int "tid"; fe_fault = Sim.F_stall (int "decisions") }
  | Some (J.String "numa-slow") ->
      let factor =
        match J.member "factor" j with
        | Some (J.Float f) -> f
        | Some (J.Int i) -> float_of_int i
        | _ -> fail "malformed fault event"
      in
      {
        Sim.fe_at = at;
        fe_tid = int "socket";
        fe_fault = Sim.F_numa_slow { factor; window = int "window" };
      }
  | Some (J.String "drop") ->
      { Sim.fe_at = at; fe_tid = int "tid"; fe_fault = Sim.F_msg Sim.Msg_drop }
  | Some (J.String "dup") -> { Sim.fe_at = at; fe_tid = int "tid"; fe_fault = Sim.F_msg Sim.Msg_dup }
  | Some (J.String "delay") ->
      { Sim.fe_at = at; fe_tid = int "tid"; fe_fault = Sim.F_msg (Sim.Msg_delay (int "sends")) }
  | _ -> fail "unknown fault kind"

(** [of_json j] returns the decision prefix, the fault plan (empty for
    schema v1 files) and the caller meta object.  Raises {!Bad_schedule}
    on malformed or wrong-version input. *)
let of_json j =
  (match J.member "kind" j with
  | Some (J.String k) when k = kind -> ()
  | _ -> fail "not an ascy-sct-schedule");
  (match J.member "version" j with
  | Some (J.Int v) when v = schema_version || v = schema_version_faults -> ()
  | _ -> fail "unsupported schedule schema version");
  let prefix =
    match J.member "prefix" j with
    | Some (J.List chunks) ->
        Scheduler.of_chunks
          (List.map
             (function
               | J.List [ J.Int tid; J.Int len ] when tid >= 0 && len >= 0 -> (tid, len)
               | _ -> fail "malformed prefix chunk")
             chunks)
    | _ -> fail "missing prefix"
  in
  let faults =
    match J.member "faults" j with
    | Some (J.List fs) -> List.map fault_of_json fs
    | Some _ -> fail "malformed faults"
    | None -> []
  in
  let meta = match J.member "meta" j with Some (J.Obj kvs) -> kvs | _ -> [] in
  (prefix, faults, meta)

let save ~path ?meta ?faults ~prefix () = J.to_file path (to_json ?meta ?faults ~prefix ())

(** [load path] reads and decodes a schedule file ({!of_json}).  An
    unreadable file or malformed JSON is a {!Bad_schedule} too. *)
let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error msg -> fail msg
  in
  of_json (try J.of_string text with J.Parse_error msg -> fail msg)

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)
(* ------------------------------------------------------------------ *)

(* Flatten the first [k] chunks plus [extra] steps of chunk [k]. *)
let take chunks k extra =
  let rec go i acc = function
    | [] -> List.rev acc
    | (tid, len) :: rest ->
        if i < k then go (i + 1) ((tid, len) :: acc) rest
        else if extra > 0 then List.rev ((tid, min extra len) :: acc)
        else List.rev acc
  in
  Scheduler.of_chunks (go 0 [] chunks)

(** [minimize ~check schedule] shrinks a failing schedule to a short
    prefix that still fails.  [check prefix] replays [prefix ^ default
    policy] and returns [Some desc] iff the oracle still reports a
    violation.  Shrinking is best-effort (the property is not monotone in
    the prefix): a doubling-then-binary search finds a short failing
    chunk prefix, the last chunk is trimmed, and a greedy pass drops
    whole chunks that turn out to be unnecessary.  [check schedule] must
    fail; the result is guaranteed to fail under [check]. *)
let minimize ~check (schedule : int array) =
  if check schedule = None then
    invalid_arg "Replay.minimize: schedule does not reproduce the failure";
  let fails p = check p <> None in
  let chunks = Scheduler.to_chunks schedule in
  let nch = List.length chunks in
  (* doubling scan for a failing chunk count *)
  let rec grow k = if k >= nch then nch else if fails (take chunks k 0) then k else grow (2 * k) in
  let hi = if fails (take chunks 0 0) then 0 else grow 1 in
  (* binary refinement below it (quasi-monotone heuristic) *)
  let lo = ref (hi / 2) and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails (take chunks mid 0) then hi := mid else lo := mid + 1
  done;
  let k = !hi in
  (* trim the last kept chunk *)
  let best = ref (take chunks k 0) in
  if k > 0 then begin
    let last_len = List.nth chunks (k - 1) |> snd in
    let lo = ref 1 and hi = ref last_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fails (take chunks (k - 1) mid) then hi := mid else lo := mid + 1
    done;
    if !hi < last_len && fails (take chunks (k - 1) !hi) then best := take chunks (k - 1) !hi
  end;
  (* greedy chunk removal (bounded) *)
  let cur = ref (Scheduler.to_chunks !best) in
  if List.length !cur <= 64 then begin
    let i = ref 0 in
    while !i < List.length !cur do
      let without = List.filteri (fun j _ -> j <> !i) !cur in
      if fails (Scheduler.of_chunks without) then cur := without else incr i
    done
  end;
  let result = Scheduler.of_chunks !cur in
  if fails result then result else !best
