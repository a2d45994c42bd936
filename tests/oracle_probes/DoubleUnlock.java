import java.util.concurrent.locks.Lock;
import java.util.concurrent.locks.ReentrantLock;
import javax.annotation.concurrent.ThreadSafe;

@ThreadSafe
class DoubleUnlock {
  private int count = 0;
  private final Lock lock = new ReentrantLock();

  public void inc() {
    lock.lock();
    count++;
    lock.unlock();
    lock.unlock();
  }
}
