import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// the early return keeps the lock, so no unlock post-dominates the write and
// P3 reports it; every write still runs under the lock, and a thread that
// leaks it blocks the other one, so the oracle finds no race
@ThreadSafe
class LeakOnReturn {
  private int x = 0;
  private final Lock lock = new ReentrantLock();

  public void set(boolean c) {
    lock.lock();
    x = 1;
    if (c) {
      return;
    }
    lock.unlock();
  }

  public int get() {
    lock.lock();
    try {
      return x;
    } finally {
      lock.unlock();
    }
  }
}
