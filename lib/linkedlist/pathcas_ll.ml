(** PathCAS linked list (Brown et al., PPoPP 2022 — "PathCAS: an
    efficient middle ground for concurrent search data structures",
    arXiv 2212.09851), instantiated over {!Ascy_mem.Memory.S.kcas}.

    The PathCAS recipe: traverse optimistically, recording a {e version
    stamp} for every node the update will depend on (read the stamp
    {e before} following the node's pointer), then commit the whole
    update as one multi-word CAS that simultaneously {e validates} the
    stamps (by bumping them) and performs the pointer swing.  Any
    concurrent update through a recorded node bumps its stamp, so the
    k-CAS fails and the operation restarts — no locks, no marks, no
    per-node helping protocol in the algorithm itself (helping lives in
    the k-CAS, on the native backend).

    Stamps carry a {e parity discipline}: a node that survives an update
    has its stamp bumped by [+2] (stays even), while the unlink of a
    node sets its stamp odd ([+1]) — a permanent tombstone, since nodes
    are never re-linked.  The parity closes the window between following
    a pointer to a node and reading its stamp: if the node was unlinked
    in that window the stamp we read is odd and the traversal restarts,
    so a recorded (even) stamp always belongs to a node that was still
    linked when the stamp was read.  Without it, the recorded stamp
    could be the {e post}-unlink value and the commit would validate an
    already-unlinked predecessor — hanging the new node off a dead one
    (a lost insert) or swinging a dead pointer (a lost remove).

    - insert after [pred]: [kcas {pred.ver +2; pred.next: curr -> node}].
    - remove [curr]: [kcas {pred.ver +2; curr.ver +1; pred.next: curr ->
      succ}].  The odd [curr.ver] tombstones [curr] and invalidates
      operations whose recorded path goes through it (an insert after
      it, a removal of its successor); [succ] — read after [curr.ver] —
      is revalidated by the same bump.
    - search: a pure traversal (ASCY1).  Unlinking is a single atomic
      pointer swing and a removed node's [next] is never changed
      afterwards, so every step of the traversal walks a pointer that
      was reachable when read — the hand-over-hand reachability argument
      of the external-BST searches, with the version stamps never read.

    Version stamps only grow (ints, never reused), so there is no ABA;
    the [next] expected values are fresh heap blocks, physical equality
    as everywhere else.

    [prepare_insert]/[prepare_remove] expose one attempt's triples
    without committing, so two structures can be composed into a single
    atomic transaction (see [examples/kcas_transfer.ml]). *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    value : 'v option;
    line : Mem.line;
    ver : int Mem.r;
    next : 'v node Mem.r;
  }

  type 'v t = { head : 'v node; rof : bool; ssmem : S.t }

  let name = "ll-pathcas"

  let mk_node key value next_node =
    let line = Mem.new_line () in
    Node { key; value; line; ver = Mem.make line 0; next = Mem.make line next_node }

  let create ?hint:_ ?(read_only_fail = true) () =
    {
      head = mk_node min_int None Nil;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let fields = function Node n -> n | Nil -> assert false

  (* Optimistic parse: last node with key < k, its version stamp as of
     before its [next] was followed, the candidate and its stamp.  Two
     rules make the recorded stamps trustworthy: the stamp is read
     before the node's [next] is followed (stamp unchanged at commit =>
     the pointer read after it is still current), and an odd stamp —
     the node was unlinked between our reading the pointer to it and
     its stamp — abandons the attempt and starts a fresh one (the same
     parse_end/restart/parse event shape as a failed commit: the parse
     learned the commit cannot succeed, one step earlier than the k-CAS
     would).  Restarts terminate: each one witnesses a fresh unlink
     event, and every node is unlinked at most once. *)
  let parse t k =
    let rec restart () =
      Mem.emit E.parse;
      (* head is never unlinked, so its stamp is always even *)
      match go t.head (Mem.get (fields t.head).ver) with
      | Some r -> r
      | None ->
          Mem.emit E.parse_end;
          Mem.emit E.restart;
          restart ()
    and go pred pv =
      match Mem.get (fields pred).next with
      | Nil -> Some (pred, pv, Nil, 0)
      | Node n as nd ->
          Mem.touch n.line;
          let nv = Mem.get n.ver in
          if nv land 1 = 1 then None
          else if n.key < k then go nd nv
          else Some (pred, pv, nd, nv)
    in
    restart ()

  let search t k =
    let rec go nd =
      match Mem.get (fields nd).next with
      | Nil -> None
      | Node n as x ->
          Mem.touch n.line;
          if n.key < k then go x else if n.key = k then n.value else None
    in
    go t.head

  let present curr k = match curr with Node n when n.key = k -> true | _ -> false

  (* The "lazy-no"-style variant (read_only_fail = false) re-validates
     the stamp that justifies the failure before reporting it, paying a
     1-CAS instead of a lock acquisition. *)
  let validate_failure ver v attempt =
    if Mem.kcas [ Mem.kcas_op ver ~expected:v ~desired:v ] then false
    else begin
      Mem.emit E.cas_fail;
      Mem.emit E.restart;
      attempt ()
    end

  let insert t k v =
    let rec attempt () =
      let pred, pv, curr, cv = parse t k in
      Mem.emit E.parse_end;
      if present curr k then
        if t.rof then false else validate_failure (fields curr).ver cv attempt
      else begin
        let p = fields pred in
        let nd = mk_node k (Some v) curr in
        if
          Mem.kcas
            [
              Mem.kcas_op p.ver ~expected:pv ~desired:(pv + 2);
              Mem.kcas_op p.next ~expected:curr ~desired:nd;
            ]
        then true
        else begin
          Mem.emit E.cas_fail;
          Mem.emit E.restart;
          attempt ()
        end
      end
    in
    attempt ()

  let remove t k =
    let rec attempt () =
      let pred, pv, curr, cv = parse t k in
      Mem.emit E.parse_end;
      match curr with
      | Node n when n.key = k ->
          let succ = Mem.get n.next in
          let p = fields pred in
          if
            Mem.kcas
              [
                Mem.kcas_op p.ver ~expected:pv ~desired:(pv + 2);
                Mem.kcas_op n.ver ~expected:cv ~desired:(cv + 1);
                Mem.kcas_op p.next ~expected:curr ~desired:succ;
              ]
          then begin
            S.free t.ssmem curr;
            true
          end
          else begin
            Mem.emit E.cas_fail;
            Mem.emit E.restart;
            attempt ()
          end
      | _ -> if t.rof then false else validate_failure (fields pred).ver pv attempt
    in
    attempt ()

  (* One attempt's commit triples, not committed: [None] when the
     operation cannot succeed right now.  Composable across structures
     into one [Mem.kcas] (all-or-nothing transfer). *)
  let prepare_insert t k v =
    let pred, pv, curr, _cv = parse t k in
    Mem.emit E.parse_end;
    if present curr k then None
    else
      let p = fields pred in
      let nd = mk_node k (Some v) curr in
      Some
        [
          Mem.kcas_op p.ver ~expected:pv ~desired:(pv + 2);
          Mem.kcas_op p.next ~expected:curr ~desired:nd;
        ]

  let prepare_remove t k =
    let pred, pv, curr, cv = parse t k in
    Mem.emit E.parse_end;
    match curr with
    | Node n when n.key = k ->
        let succ = Mem.get n.next in
        let p = fields pred in
        Some
          [
            Mem.kcas_op p.ver ~expected:pv ~desired:(pv + 2);
            Mem.kcas_op n.ver ~expected:cv ~desired:(cv + 1);
            Mem.kcas_op p.next ~expected:curr ~desired:succ;
          ]
    | _ -> None

  let size t =
    let rec go nd acc =
      match Mem.get (fields nd).next with Nil -> acc | Node _ as x -> go x (acc + 1)
    in
    go t.head 0

  let validate t =
    let rec go nd last =
      match Mem.get (fields nd).next with
      | Nil -> Ok ()
      | Node n as x -> if n.key <= last then Error "keys not strictly increasing" else go x n.key
    in
    go t.head min_int

  let op_done t = S.quiesce t.ssmem
end
