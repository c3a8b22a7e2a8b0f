// SIGPROF program-counter sampler, preloaded by tools/profile.sh.
//
// Every millisecond of process CPU time (ITIMER_PROF, any thread) the
// interrupted thread records its PC. At exit each process writes
// $EXPLFRAME_PROFILE_OUT.<pid>: its executable's path, then one line per
// sample, the PC as a decimal link-time address of that executable or
// "lib" for a PC anywhere else (shared libraries, the vDSO).
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
static uintptr_t samples[MAX_SAMPLES];
static unsigned count;
static uintptr_t base, lo, hi;  // executable load bias and mapped range

static void on_prof(int sig, siginfo_t* info, void* ctx) {
  (void)sig, (void)info;
  const mcontext_t* m = &((ucontext_t*)ctx)->uc_mcontext;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)m->gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)m->pc;
#else
#error "sigprof: add this architecture's PC register"
#endif
  const unsigned i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = pc;
}

static void arm(void) {
  const struct itimerval every = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every, NULL);
}

static void forked(void) {  // a child keeps none of the parent's samples
  count = 0;
  arm();  // and fork() does not inherit the timer
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  pthread_atfork(NULL, NULL, forked);
  arm();
}

static int find_exe(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size, (void)data;
  base = info->dlpi_addr;
  lo = UINTPTR_MAX;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* p = &info->dlpi_phdr[i];
    if (p->p_type != PT_LOAD) continue;
    if (base + p->p_vaddr < lo) lo = base + p->p_vaddr;
    if (base + p->p_vaddr + p->p_memsz > hi)
      hi = base + p->p_vaddr + p->p_memsz;
  }
  return 1;  // the first object listed is the executable
}

__attribute__((destructor)) static void stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* out = getenv("EXPLFRAME_PROFILE_OUT");
  char path[4096], exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (out == NULL || len <= 0) return;
  exe[len] = '\0';
  snprintf(path, sizeof path, "%s.%ld", out, (long)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  dl_iterate_phdr(find_exe, NULL);
  fprintf(f, "%s\n", exe);
  const unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
  for (unsigned i = 0; i < n; ++i) {
    if (samples[i] >= lo && samples[i] < hi)
      fprintf(f, "%lu\n", (unsigned long)(samples[i] - base));
    else
      fputs("lib\n", f);
  }
  fclose(f);
}
