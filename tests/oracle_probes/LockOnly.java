import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

// set() never unlocks: the write runs under the lock, and every other thread
// that takes it waits for the holder, so the lock guards the write though it
// is never let go; P3 reports nothing, and the oracle finds no race
@ThreadSafe
class LockOnly {
  private int x = 0;
  private final Lock lock = new ReentrantLock();

  public void set() {
    lock.lock();
    x = 1;
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
