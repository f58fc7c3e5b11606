/* epoll(7) for Transport.Poller.

   Linux gets the real thing; elsewhere [leopard_poller_has_epoll] is
   false and the OCaml side stays on select(2), so the other stubs are
   never called there. Interest bits cross the boundary as OCaml ints:
   1 = readable, 2 = writable. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <errno.h>

#define EV_READ 1
#define EV_WRITE 2

#ifdef __linux__

#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

/* Events taken per wait; the rest stay pending (level-triggered) and
   surface on the next round. */
#define MAX_EVENTS 256

#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 35))
#define HAVE_EPOLL_PWAIT2 1
#endif

value leopard_poller_has_epoll(value unit)
{
  (void)unit;
  return Val_true;
}

value leopard_epoll_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

static uint32_t epoll_bits(int interest)
{
  uint32_t ev = 0;
  if (interest & EV_READ) ev |= EPOLLIN | EPOLLRDHUP;
  if (interest & EV_WRITE) ev |= EPOLLOUT;
  return ev;
}

static value ctl(value v_epfd, int op, value v_fd, value v_interest)
{
  int fd = Int_val(v_fd);
  struct epoll_event ev;
  ev.events = epoll_bits(Int_val(v_interest));
  ev.data.u64 = 0;
  ev.data.fd = fd;
  if (epoll_ctl(Int_val(v_epfd), op, fd, &ev) < 0) uerror("epoll_ctl", Nothing);
  return Val_unit;
}

value leopard_epoll_add(value v_epfd, value v_fd, value v_interest)
{
  return ctl(v_epfd, EPOLL_CTL_ADD, v_fd, v_interest);
}

value leopard_epoll_modify(value v_epfd, value v_fd, value v_interest)
{
  return ctl(v_epfd, EPOLL_CTL_MOD, v_fd, v_interest);
}

/* Removal never fails: a fd already closed (EBADF) or dropped by the
   kernel at close (ENOENT) is exactly the state removal asks for. */
value leopard_epoll_remove(value v_epfd, value v_fd)
{
  struct epoll_event ev = { 0 };
  (void)epoll_ctl(Int_val(v_epfd), EPOLL_CTL_DEL, Int_val(v_fd), &ev);
  return Val_unit;
}

static int wait_ns(int epfd, struct epoll_event *evs, int max, long ns)
{
#ifdef HAVE_EPOLL_PWAIT2
  /* Seccomp filters that predate epoll_pwait2 answer ENOSYS or EPERM;
     either way fall back to millisecond epoll_wait for good. */
  static int pwait2_missing = 0;
  if (!pwait2_missing) {
    struct timespec ts;
    ts.tv_sec = ns / 1000000000L;
    ts.tv_nsec = ns % 1000000000L;
    int n = epoll_pwait2(epfd, evs, max, &ts, NULL);
    if (n >= 0 || (errno != ENOSYS && errno != EPERM)) return n;
    pwait2_missing = 1;
  }
#endif
  /* Round up: rounding down would wake before the deadline and spin
     through zero-timeout rounds until it passes. */
  long ms = (ns + 999999L) / 1000000L;
  return epoll_wait(epfd, evs, max, ms > 0x7fffffffL ? 0x7fffffff : (int)ms);
}

/* Blocks (runtime released) up to [timeout_ns], then writes up to
   [Array.length fds] ready fds and their readiness bits into the two
   arrays; returns the count. Readiness follows select(2) — hang-up and
   error count as readable, error as writable — except that hang-up
   also counts as writable: a level-triggered hang-up on a fd watched
   only for writing would otherwise wake every round without a
   callback to act on it. */
value leopard_epoll_wait(value v_epfd, value v_timeout_ns, value v_fds, value v_evs)
{
  CAMLparam4(v_epfd, v_timeout_ns, v_fds, v_evs);
  struct epoll_event evs[MAX_EVENTS];
  int epfd = Int_val(v_epfd);
  long ns = Long_val(v_timeout_ns);
  int max = (int)Wosize_val(v_fds);
  if (max > MAX_EVENTS) max = MAX_EVENTS;
  if (ns < 0) ns = 0;
  caml_enter_blocking_section();
  int n = wait_ns(epfd, evs, max, ns);
  int err = errno;
  caml_leave_blocking_section();
  if (n < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    unix_error(err, "epoll_wait", Nothing);
  }
  for (int i = 0; i < n; i++) {
    uint32_t e = evs[i].events;
    int bits = 0;
    if (e & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) bits |= EV_READ;
    if (e & (EPOLLOUT | EPOLLHUP | EPOLLERR)) bits |= EV_WRITE;
    Store_field(v_fds, i, Val_int(evs[i].data.fd));
    Store_field(v_evs, i, Val_int(bits));
  }
  CAMLreturn(Val_int(n));
}

#else /* no epoll: the OCaml side uses select(2) and never calls these */

value leopard_poller_has_epoll(value unit)
{
  (void)unit;
  return Val_false;
}

static value no_epoll(void)
{
  caml_failwith("Transport.Poller: epoll is not available on this platform");
  return Val_unit;
}

value leopard_epoll_create(value unit) { (void)unit; return no_epoll(); }
value leopard_epoll_add(value a, value b, value c) { (void)a; (void)b; (void)c; return no_epoll(); }
value leopard_epoll_modify(value a, value b, value c) { (void)a; (void)b; (void)c; return no_epoll(); }
value leopard_epoll_remove(value a, value b) { (void)a; (void)b; return no_epoll(); }
value leopard_epoll_wait(value a, value b, value c, value d)
{
  (void)a; (void)b; (void)c; (void)d;
  return no_epoll();
}

#endif
