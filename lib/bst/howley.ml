(** Internal lock-free BST with operation records and helping, after
    Howley & Jones (Table 1 "howley"; SPAA 2012).

    Every child-pointer mutation goes through the owning node's [op]
    field: a thread claims the node with a CAS installing a [ChildCAS]
    record, performs the child CAS, publishes the outcome in the record
    and releases the node — and {e any} thread that encounters a pending
    record helps complete it, searches included ("all three operations
    perform helping and might need to restart", exactly the ASCY1/2
    violations the paper quantifies on this algorithm).  Three atomic
    operations per structural update, against natarajan's ~two.

    Faithful simplification (documented in DESIGN.md): where Howley
    relocates the successor's key into a deleted two-child node, we
    tombstone the node in place (its [value] cell becomes [None], equal
    keys route right) and splice tombstones with at most one child; the
    synchronization structure — op claiming, helping, restarts — is the
    algorithm's. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    line : Mem.line;
    value : 'v option Mem.r; (* None = tombstone (routing) *)
    op : 'v op Mem.r;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
  }

  and 'v op =
    | Clean
    | Dead (* spliced out (unlinked): terminal *)
    | ChildCAS of 'v ccas
    | Splice of 'v splice
        (* frozen for splicing — a full operation record, so any thread
           that encounters it (the owner may have crash-stopped) can
           finish or abort the splice instead of spinning behind it *)

  and 'v ccas = {
    cell : 'v node Mem.r;
    expected : 'v node;
    update : 'v node;
    outcome : int Mem.r; (* 0 pending / 1 success / 2 failure *)
  }

  and 'v splice = {
    s_parent : 'v info;
    s_cell : 'v node Mem.r; (* parent cell observed to hold the node *)
    s_expected : 'v node; (* the stored [Node n] block in that cell *)
    s_state : int Mem.r; (* 0 undecided / 1 commit / 2 abort *)
    s_done : int Mem.r;
        (* shared unlink outcome (the [ccas.outcome] every helper's
           child-CAS submission carries): 0 pending / 1 landed / 2 never.
           One cell for the whole record — a helper that loses the race
           can still tell the unlink landed after the parent cell has
           moved on, where a private outcome cell would misread that as
           "never happened" and wrongly release the freeze *)
  }

  type 'v t = { root : 'v info; ssmem : S.t }

  let name = "bst-howley"

  let mk_info key value =
    let line = Mem.new_line () in
    {
      key;
      line;
      value = Mem.make line value;
      op = Mem.make line Clean;
      left = Mem.make line Nil;
      right = Mem.make line Nil;
    }

  (* root sentinel: routes every user key to its left *)
  let create ?hint:_ ?read_only_fail:_ () =
    { root = mk_info max_int None; ssmem = S.create () }

  (* Equal keys route right (tombstones are routers). *)
  let child (n : 'v info) k = if k < n.key then n.left else n.right

  (* Complete a claimed ChildCAS: perform the swap, publish the outcome,
     release the owner.  Within the claim window the cell can only change
     through this record, and [update] is a unique block, so reading the
     cell disambiguates who won. *)
  let perform (owner : 'v info) (u : 'v op) (c : 'v ccas) =
    if Mem.cas c.cell c.expected c.update then ignore (Mem.cas c.outcome 0 1)
    else if Mem.get c.cell == c.update then ignore (Mem.cas c.outcome 0 1)
    else ignore (Mem.cas c.outcome 0 2);
    (* release against the stored ChildCAS block [u] (physical CAS) *)
    ignore (Mem.cas owner.op u Clean)

  (* help / execute / resolve are mutually recursive: completing a
     splice claims the parent, which may require helping the parent's
     own pending operation first. *)
  let rec help (owner : 'v info) (u : 'v op) =
    match u with
    | ChildCAS c ->
        Mem.emit E.help;
        perform owner u c
    | Splice s ->
        Mem.emit E.help;
        ignore (resolve owner u s)
    | Clean | Dead -> ()

  (* Claim [owner] and run [c]; true iff the child CAS took effect. *)
  and execute (owner : 'v info) (c : 'v ccas) =
    match Mem.get owner.op with
    | Clean ->
        let u = ChildCAS c in
        if Mem.cas owner.op Clean u then begin
          perform owner u c;
          Mem.get c.outcome = 1
        end
        else begin
          Mem.emit E.cas_fail;
          execute owner c
        end
    | (ChildCAS _ | Splice _) as u ->
        help owner u;
        execute owner c
    | Dead -> false (* owner is (terminally) spliced *)

  (* Complete or abort a splice frozen into [n.op].  Callable by any
     thread — the freezing thread may have crash-stopped — and
     idempotent: the [s_state] CAS decides once, every helper then acts
     on the decided state.  While the record is installed [n]'s children
     are frozen (child mutations claim [n.op]), so the decision and the
     only-child read are stable; [n.value] only ever transitions
     [Some _ -> None], so a commit decision cannot be invalidated.
     Returns true iff the caller both won the terminal transition and
     saw the unlink land — the owner of the deferred free. *)
  and resolve (n : 'v info) (u : 'v op) (s : 'v splice) =
    if Mem.get s.s_state = 0 then
      (match (Mem.get n.left, Mem.get n.right) with
      | Node _, Node _ -> ignore (Mem.cas s.s_state 0 2) (* gained a 2nd child *)
      | _ ->
          if Mem.get n.value <> None then ignore (Mem.cas s.s_state 0 2)
          else ignore (Mem.cas s.s_state 0 1));
    match Mem.get s.s_state with
    | 2 ->
        ignore (Mem.cas n.op u Clean);
        false
    | _ ->
        (* commit: unlink [n] via its parent's op protocol.  [only] and
           the expected block come from frozen cells, so every helper
           submits the identical transition — carrying the record's
           {e shared} [s_done] outcome — and the cell moves
           [s_expected -> only] at most once. *)
        let only = match (Mem.get n.left, Mem.get n.right) with Nil, r -> r | l, _ -> l in
        let c = { cell = s.s_cell; expected = s.s_expected; update = only; outcome = s.s_done } in
        if execute s.s_parent c || Mem.get s.s_done = 1 then begin
          (* unlinked: [Dead] is terminal, and winning the transition
             confers ownership of the deferred free.  The [s_done] check
             covers a helper whose [execute] lost without performing
             (e.g. the recorded parent died after the unlink landed):
             the unlink happened, so the node must still go [Dead] — a
             private per-helper outcome cell here once let a late helper
             misread "cell moved past the unlink" as "unlink never
             happened" and resurrect an unlinked node to [Clean], where
             an insert could attach a child and lose it. *)
          Mem.cas n.op u Dead
        end
        else begin
          (* the recorded parent went stale (or is itself dead) before
             the unlink landed — [s_done] still pending proves it never
             will: the cell can no longer hold [s_expected].  Release
             the freeze instead of marking [Dead] — the node stays a
             linked routing tombstone (same as any skipped physical
             cleanup) and nobody blocks behind it.  Keeping
             [Dead => unlinked] is what rules out reachable dead nodes,
             which would wedge inserts routed into them. *)
          ignore (Mem.cas n.op u Clean);
          false
        end

  (* Descent that helps pending operations it encounters. *)
  let descend t k ~helping =
    let rec go (p : 'v info) (n : 'v info) =
      (if helping then
         match Mem.get n.op with
         | (ChildCAS _ | Splice _) as u -> help n u
         | Clean | Dead -> ());
      if n.key = k && Mem.get n.value <> None then `Found (p, n)
      else
        match Mem.get (child n k) with
        | Nil -> `Missing (p, n)
        | Node m ->
            Mem.touch m.line;
            go n m
    in
    go t.root t.root

  let search t k =
    match descend t k ~helping:true with
    | `Found (_, n) -> Mem.get n.value
    | `Missing _ -> None

  (* Try to splice tombstone [n] (child of [p], <= 1 child) out.  The
     freeze installs a full [Splice] record — never a bare state only
     its owner could undo — so if this thread crash-stops mid-splice any
     later traverser helps the operation to completion via [resolve]. *)
  let try_splice t (p : 'v info) (n : 'v info) =
    if n != t.root then begin
      let cell = match Mem.get p.left with Node m when m == n -> p.left | _ -> p.right in
      match Mem.get cell with
      | Node m as stored when m == n -> (
          (* the expected value must be the stored block, not a fresh
             [Node n] wrapper *)
          let s =
            {
              s_parent = p;
              s_cell = cell;
              s_expected = stored;
              s_state = Mem.make_fresh 0;
              s_done = Mem.make_fresh 0;
            }
          in
          let u = Splice s in
          match Mem.get n.op with
          | Clean ->
              if Mem.cas n.op Clean u then
                if resolve n u s then S.free t.ssmem n
          | _ -> () (* busy: the pending op's helpers will get to it *))
      | _ -> () (* p is stale *)
    end

  (* [Dead] implies unlinked, so a descent that lands on a dead node
     raced the splice (it read the child cell before the unlink).  The
     retry's fresh descent routes past it; this belt-and-braces unlink
     through the *current* parent additionally guarantees progress if a
     dead node were ever still linked — an insert routed into one would
     otherwise restart forever. *)
  let unlink_dead (p : 'v info) (n : 'v info) =
    let only = match (Mem.get n.left, Mem.get n.right) with Nil, r -> r | l, _ -> l in
    let splice cell stored =
      ignore (execute p { cell; expected = stored; update = only; outcome = Mem.make_fresh 0 })
    in
    match Mem.get p.left with
    | Node m as stored when m == n -> splice p.left stored
    | _ -> (
        match Mem.get p.right with
        | Node m as stored when m == n -> splice p.right stored
        | _ -> () (* already unlinked, or p went stale too *))

  let insert t k v =
    let rec attempt () =
      Mem.emit E.parse;
      match descend t k ~helping:true with
      | `Found _ -> false
      | `Missing (p, n) ->
          let cell = child n k in
          let c =
            {
              cell;
              expected = Nil;
              update = Node (mk_info k (Some v));
              outcome = Mem.make_fresh 0;
            }
          in
          if execute n c then true
          else begin
            (match Mem.get n.op with Dead -> unlink_dead p n | _ -> ());
            Mem.emit E.restart;
            attempt ()
          end
    in
    attempt ()

  (* No parse_end in this file: howley has no clean parse/modify split —
     the decision CASes run through the same op-claiming machinery as
     helping, so the whole operation is one (storing) parse.  That is the
     declared ASCY2 violation. *)
  let remove t k =
    Mem.emit E.parse;
    match descend t k ~helping:true with
    | `Missing _ -> false
    | `Found (p, n) -> (
        match Mem.get n.value with
        | None -> false
        | Some _ as v ->
            if Mem.cas n.value v None then begin
              (* physical cleanup when it is cheap *)
              (match (Mem.get n.left, Mem.get n.right) with
              | Node _, Node _ -> () (* stays as a routing tombstone *)
              | _ -> try_splice t p n);
              true
            end
            else false (* another remove won *))

  let size t =
    let rec go = function
      | Nil -> 0
      | Node n ->
          (if Mem.get n.value = None then 0 else 1) + go (Mem.get n.left) + go (Mem.get n.right)
    in
    go (Mem.get t.root.left)

  let validate t =
    (* equal keys route right: lo is inclusive for tombstone duplicates *)
    let rec go nd lo hi =
      match nd with
      | Nil -> Ok ()
      | Node n ->
          if n.key < lo || n.key >= hi then Error "BST order violated"
          else (
            match go (Mem.get n.left) lo n.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get n.right) n.key hi)
    in
    go (Mem.get t.root.left) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
