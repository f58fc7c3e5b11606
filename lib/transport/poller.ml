let read = 1
let write = 2

external has_epoll : unit -> bool = "leopard_poller_has_epoll" [@@noalloc]
external epoll_create : unit -> Unix.file_descr = "leopard_epoll_create"
external epoll_add : Unix.file_descr -> Unix.file_descr -> int -> unit = "leopard_epoll_add"
external epoll_modify : Unix.file_descr -> Unix.file_descr -> int -> unit = "leopard_epoll_modify"
external epoll_remove : Unix.file_descr -> Unix.file_descr -> unit = "leopard_epoll_remove"

external epoll_wait : Unix.file_descr -> int -> Unix.file_descr array -> int array -> int
  = "leopard_epoll_wait"

(* The stub takes at most this many events per wait. *)
let max_events = 256

type epoll = {
  mutable epfd : Unix.file_descr option;
  mutable registered : int;
}

type select = {
  interest : (Unix.file_descr, int) Hashtbl.t;
  (* fd lists for select(2), rebuilt only when the interest set changes:
     watch churn is rare next to rounds. *)
  mutable rd : Unix.file_descr list;
  mutable wr : Unix.file_descr list;
  mutable dirty : bool;
}

type backend =
  | Epoll of epoll
  | Select of select

type t = {
  backend : backend;
  mutable ready_fds : Unix.file_descr array;
  mutable ready_evs : int array;
}

let make backend size =
  { backend; ready_fds = Array.make size Unix.stdin; ready_evs = Array.make size 0 }

let create_select () =
  make (Select { interest = Hashtbl.create 16; rd = []; wr = []; dirty = false }) 16

let create () =
  if has_epoll () then make (Epoll { epfd = None; registered = 0 }) max_events
  else create_select ()

let is_epoll t = match t.backend with Epoll _ -> true | Select _ -> false

let add t fd ev =
  match t.backend with
  | Epoll e ->
    let epfd =
      match e.epfd with
      | Some epfd -> epfd
      | None ->
        let epfd = epoll_create () in
        e.epfd <- Some epfd;
        epfd
    in
    epoll_add epfd fd ev;
    e.registered <- e.registered + 1
  | Select s ->
    Hashtbl.replace s.interest fd ev;
    s.dirty <- true

let modify t fd ev =
  match t.backend with
  | Epoll { epfd = Some epfd; _ } -> epoll_modify epfd fd ev
  | Epoll { epfd = None; _ } -> invalid_arg "Poller.modify: fd not registered"
  | Select s ->
    Hashtbl.replace s.interest fd ev;
    s.dirty <- true

let remove t fd =
  match t.backend with
  | Epoll ({ epfd = Some epfd; _ } as e) ->
    epoll_remove epfd fd;
    e.registered <- e.registered - 1;
    if e.registered = 0 then begin
      e.epfd <- None;
      Unix.close epfd
    end
  | Epoll { epfd = None; _ } -> ()
  | Select s ->
    Hashtbl.remove s.interest fd;
    s.dirty <- true

let sleep_ns ns =
  if ns > 0 then
    try ignore (Unix.select [] [] [] (float_of_int ns *. 1e-9))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let select_wait t s ~timeout_ns =
  if s.dirty then begin
    let rd, wr =
      Hashtbl.fold
        (fun fd ev (rd, wr) ->
          ( (if ev land read <> 0 then fd :: rd else rd),
            if ev land write <> 0 then fd :: wr else wr ))
        s.interest ([], [])
    in
    s.rd <- rd;
    s.wr <- wr;
    s.dirty <- false
  end;
  match Unix.select s.rd s.wr [] (float_of_int timeout_ns *. 1e-9) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | r, w, _ ->
    let n = List.length r + List.length w in
    if n > Array.length t.ready_fds then begin
      t.ready_fds <- Array.make n Unix.stdin;
      t.ready_evs <- Array.make n 0
    end;
    let put i ev fd =
      t.ready_fds.(i) <- fd;
      t.ready_evs.(i) <- ev;
      i + 1
    in
    let i = List.fold_left (fun i fd -> put i read fd) 0 r in
    ignore (List.fold_left (fun i fd -> put i write fd) i w : int);
    n

let wait t ~timeout_ns =
  match t.backend with
  | Epoll { epfd = Some epfd; _ } -> epoll_wait epfd timeout_ns t.ready_fds t.ready_evs
  | Epoll { epfd = None; _ } ->
    sleep_ns timeout_ns;
    0
  | Select s -> select_wait t s ~timeout_ns

let ready_fd t i = t.ready_fds.(i)
let ready_events t i = t.ready_evs.(i)
