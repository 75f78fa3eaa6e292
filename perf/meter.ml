(* Host-time measurement helpers: a monotonic nanosecond clock, order
   statistics, round loops, process memory, and the correctness-check
   tally that feeds [attempted]/[failed]. *)

(* CLOCK_MONOTONIC in ns.  [Unix.gettimeofday] resolves only ~256 ns once
   scaled to ns, too coarse for per-request service latencies. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* Quantile [q] of [xs] by linear interpolation between closest ranks
   (the same rule as numpy's default and Python's "inclusive"). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Run [round] until [seconds] of wall-clock have passed, at least once
   and at most [max_rounds] times; returns every round's result in order. *)
let rounds ?(max_rounds = max_int) ~seconds round =
  let t0 = now_ns () in
  let rec go acc n =
    let acc = round () :: acc in
    if n + 1 >= max_rounds || since_s t0 >= seconds then List.rev acc else go acc (n + 1)
  in
  go [] 0

(* Wall times of [setup], repeated at least once and until [budget]
   seconds have been spent, so sub-millisecond set-ups still yield
   many samples. *)
let setup_times ~budget setup =
  let t0 = now_ns () in
  let rec go acc =
    let (), dt = time setup in
    if since_s t0 >= budget then dt :: acc else go (dt :: acc)
  in
  go []

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Words allocated on the OCaml heap so far (minor + direct-major). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Correctness tally: [attempted] counts checked units (schedules,
   simulation runs, requests), [failed] counts checks that did not hold. *)
type checks = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let fresh_checks () = { attempted = 0; failed = 0; failures = [] }

let check c ~units ok msg =
  c.attempted <- c.attempted + units;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.failures <- Lazy.force msg :: c.failures
  end
