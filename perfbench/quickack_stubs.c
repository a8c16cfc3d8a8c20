/* TCP_QUICKACK for the load generator's sockets. Linux clears the flag
   after some receives, so the generator re-arms it after every read. */

#include <caml/mlvalues.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

value perfbench_quickack(value fd)
{
#ifdef TCP_QUICKACK
  int one = 1;
  (void)setsockopt(Int_val(fd), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
  return Val_unit;
}
