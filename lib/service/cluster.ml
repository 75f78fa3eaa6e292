(** The sharded async KV cluster: N registry sets behind a hash router,
    one bounded request ring per shard, batched single-drainer dispatch,
    and lease-based fail-over from a crashed primary to its standby.

    A functor over {!Ascy_mem.Memory.S} x {!Ascy_core.Set_intf.MAKER},
    so the identical service code runs inside the simulator (every queue
    and structure access priced by the coherence model, crash faults
    injectable) and natively on OCaml 5 domains for real-machine smoke
    runs.  All cross-thread control state — queues, routed counters,
    close flags, heartbeats, leases — lives in [Mem] cells; per-shard
    measurement state (histograms, per-class counters, the conservation
    ledger) is host-side and only ever written by the shard's active
    drainer, so it is single-writer in both backends.

    The per-shard async pipeline follows the per-shard async API shape
    of succinct-cpp's [SuccinctShardAsync] (SNIPPETS.md 1): clients
    submit and move on; completions are observed by the shard worker,
    which stamps the sojourn (enqueue -> completion) latency. *)

module W = Ascy_harness.Workload
module H = Ascy_util.Histogram
module X = Ascy_util.Xorshift

(** Runtime knobs the scenario does not fix: virtual-time source and
    latency unit (simulator) or neither (native), optional per-op
    history recording, and the message-fault source for the queue-layer
    fault matrix. *)
type knobs = {
  now : unit -> int;  (** calling thread's clock, cycles; [fun () -> 0] natively *)
  cycle_ns : float;  (** ns per cycle for latency histograms; [<= 0.] disables them *)
  record :
    (sid:int -> op:W.op -> key:int -> ok:bool -> inv:int -> res:int -> unit) option;
      (** linearizability spot-check hook, called at apply time *)
  poll_fault : unit -> Ascy_mem.Simtypes.msg_fault option;
      (** polled once per client send boundary; the returned token is
          enacted on that message.  The simulator binding is
          [Sim.poll_msg_fault]; the default never faults (native runs,
          fault-free simulations) *)
}

(** Standby poll gap, cycles of local work. *)
let hb_gap = 5_000

(** Stale heartbeat polls before a standby takes the lease. *)
let hb_polls = 8

let default_knobs =
  {
    now = (fun () -> 0);
    cycle_ns = 0.0;
    record = None;
    poll_fault = (fun () -> None);
  }

(** Thread ids are laid out clients first, then primaries, then (when
    provisioned) standbys — the coordinate system fault plans target. *)
let primary_tid (sc : Scenario.t) sid = sc.Scenario.nclients + sid

module Make (Mem : Ascy_mem.Memory.S) (A : Ascy_core.Set_intf.MAKER) = struct
  module M = A (Mem)
  module Q = Shard_queue.Make (Mem)

  type request = {
    rq_op : W.op;
    rq_key : int;
    rq_enq : int;  (** client clock at submit, cycles *)
    rq_token : int;  (** idempotency token; 0 = untracked (legacy path) *)
    rq_deadline : int;  (** absolute deadline, cycles; 0 = none *)
    rq_ack : int Mem.r option;
        (** completion cell shared by every attempt of a logical request:
            0 pending, 1 applied (result false), 2 applied (result true).
            [None] on the legacy fire-and-forget path, which therefore
            allocates no extra lines and stays bit-for-bit identical *)
  }

  type shard = {
    sid : int;
    set : int M.t;
    queue : request Q.t;
    closed : bool Mem.r;  (** no further requests will arrive *)
    hb : int Mem.r;  (** drainer heartbeat *)
    lease : int Mem.r;  (** 0 = primary owns the shard, 1 = standby took over *)
    done_flag : bool Mem.r;  (** drainer exited after emptying a closed queue *)
    (* host-side measurement, active-drainer-owned *)
    mutable s_applied : int;
    mutable s_search_ok : int;
    mutable s_search_miss : int;
    mutable s_insert_ok : int;
    mutable s_insert_fail : int;
    mutable s_remove_ok : int;
    mutable s_remove_fail : int;
    mutable s_batches : int;
    mutable s_max_batch : int;
    mutable s_takeovers : int;
    mutable s_inflight : (W.op * int) option;
        (** the request being applied; survives a drainer crash for the
            conservation oracle's +-1 slack *)
    mutable s_crash_inflight : (W.op * int) list;
        (** in-flight markers captured from a dead primary at takeover
            (the standby then overwrites [s_inflight] with its own) *)
    s_net : (int, int) Hashtbl.t;  (** recorded per-key membership delta *)
    s_tokens : (int, int * int * int) Hashtbl.t;
        (** token -> (applies, ack code, apply clock): the delivery
            oracles' ground truth.  Host-side and written only by the
            shard's active drainer; unlike the dedup window it is never
            evicted, so duplicate applications are always visible *)
    s_window : Resilience.window;  (** drainer-side idempotency dedup window *)
    s_sojourn : H.t;  (** enqueue -> completion, ns *)
    s_service : H.t;  (** apply time alone, ns *)
  }

  type t = {
    sc : Scenario.t;
    resil : Resilience.config;
    shards : shard array;
    active_clients : int Mem.r;
    prefilled : (int, unit) Hashtbl.t;
    c_waits : int array;  (** full-ring wait iterations, per client thread *)
    c_routed : int array;  (** requests submitted, per client thread *)
    c_metrics : Resilience.metrics array;  (** per client thread *)
    d_metrics : Resilience.metrics array;  (** per shard (active drainer) *)
    c_acked : (int, int * int * bool) Hashtbl.t array;
        (** per client: token -> (submit clock, shard, hedged) of every
            acknowledged logical request — the no-lost-ack /
            bounded-staleness oracle input *)
  }

  let route t key = Router.route t.sc.Scenario.routing ~nshards:t.sc.Scenario.nshards key

  let create ?(resil = Resilience.disabled) (sc : Scenario.t) =
    Resilience.validate resil;
    let mk_shard sid =
      {
        sid;
        set = M.create ~hint:(max 8 (sc.Scenario.initial / max 1 sc.Scenario.nshards)) ();
        queue = Q.create ~cap:sc.Scenario.queue_cap;
        closed = Mem.make_fresh false;
        hb = Mem.make_fresh 0;
        lease = Mem.make_fresh 0;
        done_flag = Mem.make_fresh false;
        s_applied = 0;
        s_search_ok = 0;
        s_search_miss = 0;
        s_insert_ok = 0;
        s_insert_fail = 0;
        s_remove_ok = 0;
        s_remove_fail = 0;
        s_batches = 0;
        s_max_batch = 0;
        s_takeovers = 0;
        s_inflight = None;
        s_crash_inflight = [];
        s_net = Hashtbl.create 256;
        s_tokens = Hashtbl.create 256;
        s_window = Resilience.mk_window resil.Resilience.dedup_window;
        s_sojourn = H.create ();
        s_service = H.create ();
      }
    in
    {
      sc;
      resil;
      shards = Array.init sc.Scenario.nshards mk_shard;
      active_clients = Mem.make_fresh sc.Scenario.nclients;
      prefilled = Hashtbl.create (max 16 sc.Scenario.initial);
      c_waits = Array.make sc.Scenario.nclients 0;
      c_routed = Array.make sc.Scenario.nclients 0;
      c_metrics = Array.init sc.Scenario.nclients (fun _ -> Resilience.fresh_metrics ());
      d_metrics = Array.init sc.Scenario.nshards (fun _ -> Resilience.fresh_metrics ());
      c_acked = Array.init sc.Scenario.nclients (fun _ -> Hashtbl.create 64);
    }

  (** Prefill [sc.initial] distinct keys, routed to their owning shards.
      Call before the run starts (outside simulated time). *)
  let prefill t ~seed =
    let sc = t.sc in
    let rng = X.create ((seed * 31) + 7) in
    let filled = ref 0 in
    while !filled < sc.Scenario.initial do
      let k = 1 + X.below rng sc.Scenario.key_range in
      if M.insert t.shards.(route t k).set k 0 then begin
        incr filled;
        Hashtbl.replace t.prefilled k ()
      end
    done

  (* ---------------------------------------------------------------- *)
  (* Client side                                                       *)
  (* ---------------------------------------------------------------- *)

  (* Client [tid]'s sessions, dealt round-robin (tid, tid + nclients,
     ...), each as its seeded request stream. *)
  let client_sessions sc ~seed tid =
    let n = ref 0 in
    for s = 0 to sc.Scenario.sessions - 1 do
      if s mod sc.Scenario.nclients = tid then incr n
    done;
    Array.init !n (fun i ->
        let sid = tid + (i * sc.Scenario.nclients) in
        X.create ((seed * 2654435761) + (sid * 40503) + 17))

  (** Load-generator thread [tid]: multiplexes its share of the session
      population round-robin (every session advances one request per
      round, like an event-loop frontend), routes each request, and
      submits it to the owning shard's ring.  The last client to finish
      closes every shard. *)
  let client_body t ~knobs ~seed tid () =
    let sc = t.sc in
    let sessions = client_sessions sc ~seed tid in
    for round = 0 to sc.Scenario.ops_per_session - 1 do
      Array.iter
        (fun rng ->
          let op = Scenario.sample_op sc rng in
          let key = Scenario.sample_key sc ~round rng in
          let rq =
            {
              rq_op = op;
              rq_key = key;
              rq_enq = knobs.now ();
              rq_token = 0;
              rq_deadline = 0;
              rq_ack = None;
            }
          in
          let waits = Q.enqueue t.shards.(route t key).queue rq in
          t.c_waits.(tid) <- t.c_waits.(tid) + waits;
          t.c_routed.(tid) <- t.c_routed.(tid) + 1)
        sessions
    done;
    if Mem.fetch_and_add t.active_clients (-1) = 1 then
      Array.iter (fun sh -> Mem.set sh.closed true) t.shards

  (** Resilient load generator: same session layout and close protocol
      as {!client_body}, but every logical request gets an idempotency
      token, an absolute deadline and a shared ack cell, is submitted
      with explicit backpressure ({!Shard_queue.try_enqueue}), and is
      retried with seeded exponential backoff on deadline miss or
      rejection.  Per-shard circuit breakers (client-local — each client
      trips on its own observations, so no cross-thread state) shed
      requests while a shard looks unhealthy; reads still unacked after
      [hedge_after] race a duplicate submission (safe under the
      drainer's dedup window).  The per-client retry/jitter stream is
      derived from the run seed via [Xorshift.split], so the entire
      retry/hedge schedule replays bit-for-bit.

      Message faults: each fresh send polls [knobs.poll_fault] and
      enacts the token on that one message — drop (never enqueued),
      dup (enqueued twice), delay (held back until [n] later send
      boundaries by this client have passed). *)
  let resilient_client_body t ~knobs ~seed tid () =
    let sc = t.sc in
    let r = t.resil in
    let m = t.c_metrics.(tid) in
    let acked_log = t.c_acked.(tid) in
    let sessions = client_sessions sc ~seed tid in
    let jrng = X.split (X.create ((seed * 2654435761) + (tid * 48611) + 29)) in
    let breakers =
      match r.Resilience.breaker with
      | Some bc -> Some (Array.init sc.Scenario.nshards (fun _ -> Resilience.mk_breaker bc))
      | None -> None
    in
    let seq = ref 0 in
    let delayed = ref [] (* (sends until delivery, sid, request) *) in
    (* One send boundary: held messages age by one send, due ones are
       delivered (best-effort — a full ring loses them, like any drop). *)
    let age_delayed () =
      let due, still = List.partition (fun (n, _, _) -> n <= 1) !delayed in
      delayed := List.map (fun (n, s, rq) -> (n - 1, s, rq)) still;
      List.iter
        (fun (_, s, rq) ->
          match Q.try_enqueue t.shards.(s).queue rq with
          | Shard_queue.Enqueued _ -> ()
          | Shard_queue.Overloaded -> m.Resilience.m_overloads <- m.Resilience.m_overloads + 1)
        due
    in
    (* Send one copy, enacting a pending message-fault token.  [`Sent]
       means the client should wait for the ack (a dropped or delayed
       message looks sent — that is the point); [`Overloaded] is the
       explicit queue-full rejection. *)
    let send sid rq =
      age_delayed ();
      match knobs.poll_fault () with
      | Some Ascy_mem.Simtypes.Msg_drop ->
          m.Resilience.m_fault_drops <- m.Resilience.m_fault_drops + 1;
          `Sent
      | Some Ascy_mem.Simtypes.Msg_dup -> (
          m.Resilience.m_fault_dups <- m.Resilience.m_fault_dups + 1;
          match Q.try_enqueue t.shards.(sid).queue rq with
          | Shard_queue.Overloaded -> `Overloaded
          | Shard_queue.Enqueued _ -> (
              match Q.try_enqueue t.shards.(sid).queue rq with
              | Shard_queue.Enqueued _ | Shard_queue.Overloaded -> `Sent))
      | Some (Ascy_mem.Simtypes.Msg_delay n) ->
          m.Resilience.m_fault_delays <- m.Resilience.m_fault_delays + 1;
          delayed := (max 1 n, sid, rq) :: !delayed;
          `Sent
      | None -> (
          match Q.try_enqueue t.shards.(sid).queue rq with
          | Shard_queue.Enqueued _ -> `Sent
          | Shard_queue.Overloaded -> `Overloaded)
    in
    let do_request op key =
      let sid = route t key in
      incr seq;
      let tok = Resilience.token ~tid ~seq:!seq in
      let submit0 = knobs.now () in
      let admitted =
        match breakers with Some bs -> Resilience.allow bs.(sid) ~now:submit0 | None -> true
      in
      if not admitted then m.Resilience.m_sheds <- m.Resilience.m_sheds + 1
      else begin
        let ack = Mem.make_fresh 0 in
        let fail_step nowc =
          match breakers with Some bs -> Resilience.on_failure bs.(sid) ~now:nowc | None -> ()
        in
        let rec attempt i =
          let nowc = knobs.now () in
          let deadline = nowc + r.Resilience.deadline in
          let rq =
            {
              rq_op = op;
              rq_key = key;
              rq_enq = nowc;
              rq_token = tok;
              rq_deadline = deadline;
              rq_ack = Some ack;
            }
          in
          t.c_routed.(tid) <- t.c_routed.(tid) + 1;
          let retry_or_give_up () =
            if i < r.Resilience.retry.Resilience.max_attempts then begin
              m.Resilience.m_retries <- m.Resilience.m_retries + 1;
              Mem.work (Resilience.backoff r.Resilience.retry ~attempt:i ~rng:jrng);
              attempt (i + 1)
            end
            else m.Resilience.m_gave_up <- m.Resilience.m_gave_up + 1
          in
          match send sid rq with
          | `Overloaded ->
              m.Resilience.m_overloads <- m.Resilience.m_overloads + 1;
              fail_step nowc;
              retry_or_give_up ()
          | `Sent ->
              let hedged = ref false in
              let rec poll () =
                if Mem.get ack <> 0 then `Acked
                else begin
                  let c = knobs.now () in
                  if c >= deadline then `Miss
                  else begin
                    if
                      (not !hedged)
                      && r.Resilience.hedge_after > 0
                      && op = W.Search
                      && c - nowc >= r.Resilience.hedge_after
                    then begin
                      hedged := true;
                      m.Resilience.m_hedges <- m.Resilience.m_hedges + 1;
                      ignore (send sid rq)
                    end;
                    Mem.work r.Resilience.poll_gap;
                    poll ()
                  end
                end
              in
              (match poll () with
              | `Acked ->
                  m.Resilience.m_acked <- m.Resilience.m_acked + 1;
                  if !hedged then m.Resilience.m_hedge_wins <- m.Resilience.m_hedge_wins + 1;
                  Hashtbl.replace acked_log tok (submit0, sid, !hedged);
                  (match breakers with Some bs -> Resilience.on_success bs.(sid) | None -> ())
              | `Miss ->
                  m.Resilience.m_deadline_miss <- m.Resilience.m_deadline_miss + 1;
                  fail_step (knobs.now ());
                  retry_or_give_up ())
        in
        attempt 1
      end
    in
    for round = 0 to sc.Scenario.ops_per_session - 1 do
      Array.iter
        (fun rng ->
          let op = Scenario.sample_op sc rng in
          let key = Scenario.sample_key sc ~round rng in
          do_request op key)
        sessions
    done;
    (match breakers with
    | Some bs ->
        Array.iter
          (fun b ->
            m.Resilience.m_breaker_trips <- m.Resilience.m_breaker_trips + b.Resilience.b_trips)
          bs
    | None -> ());
    if Mem.fetch_and_add t.active_clients (-1) = 1 then
      Array.iter (fun sh -> Mem.set sh.closed true) t.shards

  (* ---------------------------------------------------------------- *)
  (* Shard workers                                                     *)
  (* ---------------------------------------------------------------- *)

  let apply_fresh sh ~knobs (rq : request) =
    sh.s_inflight <- Some (rq.rq_op, rq.rq_key);
    let t0 = knobs.now () in
    let ok =
      match rq.rq_op with
      | W.Search -> M.search sh.set rq.rq_key <> None
      | W.Insert -> M.insert sh.set rq.rq_key (1 + sh.sid)
      | W.Remove -> M.remove sh.set rq.rq_key
    in
    M.op_done sh.set;
    let t1 = knobs.now () in
    (match (rq.rq_op, ok) with
    | W.Search, true -> sh.s_search_ok <- sh.s_search_ok + 1
    | W.Search, false -> sh.s_search_miss <- sh.s_search_miss + 1
    | W.Insert, true ->
        sh.s_insert_ok <- sh.s_insert_ok + 1;
        Hashtbl.replace sh.s_net rq.rq_key
          (1 + (try Hashtbl.find sh.s_net rq.rq_key with Not_found -> 0))
    | W.Insert, false -> sh.s_insert_fail <- sh.s_insert_fail + 1
    | W.Remove, true ->
        sh.s_remove_ok <- sh.s_remove_ok + 1;
        Hashtbl.replace sh.s_net rq.rq_key
          ((try Hashtbl.find sh.s_net rq.rq_key with Not_found -> 0) - 1)
    | W.Remove, false -> sh.s_remove_fail <- sh.s_remove_fail + 1);
    sh.s_applied <- sh.s_applied + 1;
    if knobs.cycle_ns > 0.0 then begin
      H.add sh.s_service (float_of_int (t1 - t0) *. knobs.cycle_ns);
      H.add sh.s_sojourn (float_of_int (max 0 (t1 - rq.rq_enq)) *. knobs.cycle_ns)
    end;
    (match knobs.record with
    | Some f -> f ~sid:sh.sid ~op:rq.rq_op ~key:rq.rq_key ~ok ~inv:t0 ~res:t1
    | None -> ());
    (* token bookkeeping (host-side, hence atomic with respect to
       crash-stop, which only lands at memory-effect boundaries): the
       oracle table and the dedup window move together, so a standby
       re-draining this request after a crash below is recognized as a
       duplicate *)
    if rq.rq_token <> 0 then begin
      let applies =
        match Hashtbl.find_opt sh.s_tokens rq.rq_token with Some (a, _, _) -> a | None -> 0
      in
      Hashtbl.replace sh.s_tokens rq.rq_token (applies + 1, (if ok then 2 else 1), t1);
      Resilience.window_add sh.s_window rq.rq_token
    end;
    (match rq.rq_ack with Some ack -> Mem.set ack (if ok then 2 else 1) | None -> ());
    (* the commit makes the application durable: a crash before this
       point re-applies the request under the standby, a crash after it
       loses nothing *)
    Q.commit sh.queue;
    sh.s_inflight <- None

  (** Dispatch one peeked request: dedup-suppress duplicates inside the
      window, shed requests that expired in the queue, apply the rest. *)
  let apply_one sh ~knobs ~resil ~dm (rq : request) =
    if rq.rq_token <> 0 && Resilience.window_mem sh.s_window rq.rq_token then begin
      (* duplicate delivery inside the dedup window (retransmit, hedge,
         injected dup, or a standby re-draining a committed-but-unacked
         request): suppress the apply, re-acknowledge idempotently with
         the recorded outcome.  This is what makes retries
         at-most-once-applied. *)
      dm.Resilience.m_dup_suppressed <- dm.Resilience.m_dup_suppressed + 1;
      (match (rq.rq_ack, Hashtbl.find_opt sh.s_tokens rq.rq_token) with
      | Some ack, Some (_, code, _) -> Mem.set ack code
      | Some ack, None -> Mem.set ack 1 (* unreachable: window entries are recorded tokens *)
      | None, _ -> ());
      Q.commit sh.queue
    end
    else if resil.Resilience.enabled && rq.rq_deadline > 0 && knobs.now () > rq.rq_deadline
    then begin
      (* expired in the queue: shed without applying — the client has
         already declared the miss and (re)tried; serving the corpse
         would waste shard time under exactly the overload that made it
         late.  Never acked, so the no-lost-ack oracle is untouched. *)
      dm.Resilience.m_sheds <- dm.Resilience.m_sheds + 1;
      Q.commit sh.queue
    end
    else apply_fresh sh ~knobs rq

  (** Drain loop shared by the primary and a post-takeover standby:
      batched dispatch (up to [batch_max] per wakeup), heartbeat bump
      per request, exit once the shard is closed and the ring is dry. *)
  let drain_loop t sh ~knobs =
    let sc = t.sc in
    let running = ref true in
    while !running do
      Mem.set sh.hb (Mem.get sh.hb + 1);
      let n = ref 0 in
      let continue = ref true in
      while !continue && !n < sc.Scenario.batch_max do
        match Q.peek sh.queue with
        | Some rq ->
            apply_one sh ~knobs ~resil:t.resil ~dm:t.d_metrics.(sh.sid) rq;
            Mem.set sh.hb (Mem.get sh.hb + 1);
            incr n
        | None -> continue := false
      done;
      if !n > 0 then begin
        sh.s_batches <- sh.s_batches + 1;
        if !n > sh.s_max_batch then sh.s_max_batch <- !n
      end
      else if Mem.get sh.closed && Q.is_empty sh.queue then begin
        Mem.set sh.done_flag true;
        running := false
      end
      else Mem.cpu_relax ()
    done

  let primary_body t sh ~knobs () = drain_loop t sh ~knobs

  (** Standby worker: watch the primary's heartbeat; after [hb_polls]
      stale observations, take the lease and drain the shard to
      completion.  The lease CAS keeps at most one takeover even if the
      protocol ever grows more standbys. *)
  let standby_body t sh ~knobs () =
    let rec watch last stale =
      if Mem.get sh.done_flag then ()
      else begin
        Mem.work hb_gap;
        let h = Mem.get sh.hb in
        if h <> last then watch h 0
        else if stale + 1 >= hb_polls then begin
          if Mem.cas sh.lease 0 1 then begin
            sh.s_takeovers <- sh.s_takeovers + 1;
            (* freeze the corpse's in-flight marker before our own
               draining overwrites it — the conservation oracle widens
               its slack by exactly this request *)
            (match sh.s_inflight with
            | Some x -> sh.s_crash_inflight <- x :: sh.s_crash_inflight
            | None -> ());
            drain_loop t sh ~knobs
          end
          else watch h 0
        end
        else watch h (stale + 1)
      end
    in
    watch (Mem.get sh.hb) 0

  (** Thread bodies in tid order: clients, then primaries, then (when
      provisioned) standbys — see {!primary_tid}. *)
  let bodies t ~knobs ~seed =
    let sc = t.sc in
    let nc = sc.Scenario.nclients and ns = sc.Scenario.nshards in
    let client = if t.resil.Resilience.enabled then resilient_client_body else client_body in
    Array.init (Scenario.nthreads sc) (fun tid ->
        if tid < nc then client t ~knobs ~seed tid
        else if tid < nc + ns then primary_body t t.shards.(tid - nc) ~knobs
        else standby_body t t.shards.(tid - nc - ns) ~knobs)

  (* ---------------------------------------------------------------- *)
  (* Post-run oracles                                                  *)
  (* ---------------------------------------------------------------- *)

  (** Structural validation plus per-key conservation from the recorded
      completion ledger, with +-1 slack on the in-flight request of any
      crashed drainer (its application may have landed on either side of
      the crash; a standby may also have re-applied it — both legal).
      [crashed_inflight] lists the (op, key) pairs left in flight by
      crashed workers.  Returns [None] when everything checks out. *)
  let check t ~crashed_inflight =
    let structural =
      Array.fold_left
        (fun acc sh ->
          match acc with
          | Some _ -> acc
          | None -> (
              match M.validate sh.set with
              | Ok () -> None
              | Error msg -> Some (Printf.sprintf "shard %d invalid: %s" sh.sid msg)))
        None t.shards
    in
    match structural with
    | Some _ as v -> v
    | None ->
        let bad = ref [] in
        let check_key sh k net =
          let wanted = (if Hashtbl.mem t.prefilled k then 1 else 0) + net in
          let lo = ref 0 and hi = ref 0 in
          List.iter
            (fun (op, k') ->
              if k' = k then
                match op with W.Insert -> incr hi | W.Remove -> decr lo | W.Search -> ())
            crashed_inflight;
          let got = if M.search sh.set k <> None then 1 else 0 in
          if got < wanted + !lo || got > wanted + !hi then
            bad :=
              Printf.sprintf
                "shard %d key %d: net %d from recorded ops (slack %+d..%+d), membership %d"
                sh.sid k wanted !lo !hi got
              :: !bad
        in
        Array.iter (fun sh -> Hashtbl.iter (check_key sh) sh.s_net) t.shards;
        (* keys only touched by a crashed in-flight op have no ledger
           entry; check them against their owning shard too *)
        List.iter
          (fun (op, k) ->
            if op <> W.Search then
              let sh = t.shards.(route t k) in
              if not (Hashtbl.mem sh.s_net k) then check_key sh k 0)
          crashed_inflight;
        (match !bad with
        | [] -> None
        | l -> Some ("conservation violated: " ^ String.concat "; " (List.rev l)))

  (** End-to-end delivery oracles for resilient runs, checked against
      the drainers' token tables and the clients' ack logs:

      - {e at-most-once} (armed when the dedup window is on): no
        idempotency token was applied more than once, no matter how many
        copies — retries, hedges, injected duplicates, standby re-drains
        — reached a drainer;
      - {e no-lost-ack}: every acknowledgment a client observed is backed
        by an application recorded on the owning shard;
      - {e bounded staleness}: an acknowledged {e hedged} read was
        applied by its owning shard no earlier than [staleness_bound]
        cycles before its submission (per-thread clocks are only loosely
        coupled, hence the slack; the structural guarantee is that
        hedges are served by the same authoritative drainer, never a
        stale replica).

      Returns [None] when everything holds, or a message naming the
      first few violations. *)
  let check_delivery t =
    if not t.resil.Resilience.enabled then None
    else begin
      let bad = ref [] in
      let report msg = if List.length !bad < 8 then bad := msg :: !bad in
      (* At-most-once is checked unconditionally: with the dedup window
         disabled the config *declares* may-apply-duplicates, and this
         oracle is exactly what detects that a duplicated delivery (or a
         crash re-apply) really did apply twice — the teeth the fault
         matrix tests bite with. *)
      Array.iter
        (fun sh ->
          Hashtbl.iter
            (fun tok (applies, _, _) ->
              if applies > 1 then
                report
                  (Printf.sprintf "at-most-once: token %d applied %d times on shard %d" tok
                     applies sh.sid))
            sh.s_tokens)
        t.shards;
      Array.iter
        (fun acked ->
          Hashtbl.iter
            (fun tok (submit, sid, hedged) ->
              match Hashtbl.find_opt t.shards.(sid).s_tokens tok with
              | None ->
                  report
                    (Printf.sprintf "no-lost-ack: token %d acked but never applied on shard %d"
                       tok sid)
              | Some (_, _, t_apply) ->
                  if hedged && t_apply + t.resil.Resilience.staleness_bound < submit then
                    report
                      (Printf.sprintf
                         "bounded-staleness: hedged read token %d applied at %d, submitted at %d"
                         tok t_apply submit))
            acked)
        t.c_acked;
      match !bad with
      | [] -> None
      | l -> Some ("delivery violated: " ^ String.concat "; " (List.rev l))
    end

  (** All per-client and per-drainer resilience counters of the run,
      merged. *)
  let resil_metrics t =
    let total = Resilience.fresh_metrics () in
    Array.iter (fun m -> Resilience.merge_into ~into:total m) t.c_metrics;
    Array.iter (fun m -> Resilience.merge_into ~into:total m) t.d_metrics;
    total

  let total_applied t = Array.fold_left (fun a sh -> a + sh.s_applied) 0 t.shards
  let total_size t = Array.fold_left (fun a sh -> a + M.size sh.set) 0 t.shards
end
