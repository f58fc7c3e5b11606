type step = { sibling : Hash.t; sibling_on_left : bool }
type proof = step list

let parent l r = Hash.combine [ l; r ]

(* [root] is the hot path: it runs once per datablock creation and once
   per receiver-side verification, over alpha leaves. The list-based
   [level_up] allocates a fresh list per level (~33 words per inner node);
   instead the leaves are written into, and the levels computed in, two
   ping-pong scratch buffers with [Sha256.digest_pair_into], so a root
   costs exactly one 32-byte string allocation (the result) regardless of
   width. The scratch grows to the widest leaf set seen and is reused; it
   lives in domain-local storage so concurrent [root] calls from different
   domains each get their own and cannot corrupt one another. *)
type scratch = { mutable a : Bytes.t; mutable b : Bytes.t }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { a = Bytes.create (256 * Hash.size_bytes);
        b = Bytes.create (256 * Hash.size_bytes) })

let ensure_scratch s need =
  if Bytes.length s.a < need then begin
    let cap = ref (Bytes.length s.a) in
    while !cap < need do
      cap := !cap * 2
    done;
    s.a <- Bytes.create !cap;
    s.b <- Bytes.create !cap
  end

let rec fill leaf dst i = function
  | [] -> ()
  | x :: rest ->
    leaf x dst (i * Hash.size_bytes);
    fill leaf dst (i + 1) rest

let root_with ~leaf = function
  | [] -> Hash.of_string ""
  | xs ->
    let n = List.length xs in
    let s = Domain.DLS.get scratch_key in
    ensure_scratch s (n * Hash.size_bytes);
    fill leaf s.a 0 xs;
    let src = ref s.a and dst = ref s.b in
    let width = ref n in
    while !width > 1 do
      let pairs = !width / 2 in
      for i = 0 to pairs - 1 do
        Sha256.digest_pair_into ~src:!src ~src_off:(i * 64) ~dst:!dst
          ~dst_off:(i * Hash.size_bytes)
      done;
      (* odd tail promoted unchanged, as in [level_up] *)
      if !width land 1 = 1 then begin
        Bytes.blit !src ((!width - 1) * Hash.size_bytes) !dst (pairs * Hash.size_bytes)
          Hash.size_bytes;
        width := pairs + 1
      end
      else width := pairs;
      let t = !src in
      src := !dst;
      dst := t
    done;
    Hash.of_raw (Bytes.sub_string !src 0 Hash.size_bytes)

let blit_leaf h dst off = Bytes.blit_string (Hash.raw h) 0 dst off Hash.size_bytes

let root = function [ x ] -> x | leaves -> root_with ~leaf:blit_leaf leaves

let prove leaves i =
  let n = List.length leaves in
  if i < 0 || i >= n then None
  else begin
    let rec go nodes idx acc =
      match nodes with
      (* Total: [go] starts with >= 1 node (the index range check above
         guarantees non-empty leaves) and pairing never empties a level,
         but a defensive total match beats a process-killing assert. *)
      | [] -> List.rev acc
      | [ _ ] -> List.rev acc
      | _ ->
        let arr = Array.of_list nodes in
        let len = Array.length arr in
        let acc =
          if idx land 1 = 0 then
            if idx + 1 < len then { sibling = arr.(idx + 1); sibling_on_left = false } :: acc
            else acc (* odd tail promoted: no sibling at this level *)
          else { sibling = arr.(idx - 1); sibling_on_left = true } :: acc
        in
        let next =
          let rec pair = function
            | l :: r :: rest -> parent l r :: pair rest
            | [ odd ] -> [ odd ]
            | [] -> []
          in
          pair nodes
        in
        go next (idx / 2) acc
    in
    Some (go leaves i [])
  end

let verify_proof ~root:expected ~leaf proof =
  let computed =
    List.fold_left
      (fun acc step ->
        if step.sibling_on_left then parent step.sibling acc else parent acc step.sibling)
      leaf proof
  in
  Hash.equal computed expected

let proof_size_bytes proof = (List.length proof * Hash.size_bytes) + ((List.length proof + 7) / 8)
